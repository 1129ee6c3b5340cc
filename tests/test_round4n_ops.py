"""Round-4N operator batches (session 4 of round 4).

Each op is driver-gate verified (rows+schema+hash vs DuckDB) at sf0.001
AND sf0.01 before its commit; these tests pin the semantic regimes the
hash sweep can't see — identical-sample zeros, monotone-trend extremes,
crafted spread contrasts — on engineered fixtures."""
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def _events_table(d, types, values, users=None, ts=None):
    n = len(types)
    pq.write_table(pa.table({
        "event_id": pa.array(list(range(n)), type=pa.int64()),
        "user_id": pa.array(users or [1] * n, type=pa.int64()),
        "event_type": pa.array(types),
        "ts": pa.array(ts or list(range(n)), type=pa.int64()),
        "value": pa.array(values, type=pa.float64())}),
        os.path.join(d, "events.parquet"))


def test_anderson_darling_identical_samples_zero(tmp_path):
    """Byte-identical click and purchase value multisets make every
    per-value term vanish exactly (N·G_ij = n_i·H_j when the side
    shares are proportional), so a2_nano == 0 — the AD analogue of
    the CvM op's equal-distribution pin."""
    from prclz_ray.pipelines.queries import q_anderson_darling_2samp
    d = str(tmp_path)
    vals = [1.0, 2.0, 2.0, 5.0, 9.0]
    _events_table(d, ["click"] * 5 + ["purchase"] * 5, vals + vals)
    out = q_anderson_darling_2samp(d).iloc[0]
    assert int(out["n_click"]) == 5
    assert int(out["n_purchase"]) == 5
    assert int(out["a2_nano"]) == 0


def test_anderson_darling_matches_direct_midrank(tmp_path):
    """Cross-check the cleared-integer chain against a direct float
    implementation of Scholz–Stephens A²_akN (midrank/tie-adjusted,
    k = 2) on a small unequal sample — and separated samples must
    score strictly higher than interleaved ones."""
    from prclz_ray.pipelines.queries import q_anderson_darling_2samp

    def direct(x, y):
        xs, ys = np.asarray(x, float), np.asarray(y, float)
        z = np.unique(np.concatenate([xs, ys]))
        n_, m_ = len(xs), len(ys)
        nn = n_ + m_
        a2 = 0.0
        for ni, s in ((n_, xs), (m_, ys)):
            for v in z:
                lj = (np.concatenate([xs, ys]) == v).sum()
                cj = (np.concatenate([xs, ys]) <= v).sum()
                bj = cj - lj / 2.0
                cij = (s <= v).sum()
                lij = (s == v).sum()
                mij = cij - lij / 2.0
                dj = bj * (nn - bj) - nn * lj / 4.0
                if dj == 0:
                    continue
                a2 += ((nn - 1) / nn) * (lj / nn) \
                    * (nn * mij - ni * bj) ** 2 / (ni * dj)
        return a2

    d = str(tmp_path / "a")
    os.makedirs(d)
    cl = [1.0, 2.0, 3.0, 3.0, 7.0]
    pu = [2.0, 6.0, 8.0]
    _events_table(d, ["click"] * 5 + ["purchase"] * 3, cl + pu)
    got = q_anderson_darling_2samp(d).iloc[0]
    want = direct(cl, pu)
    assert abs(float(got["ad_a2"]) - want) < 1e-6

    d2 = str(tmp_path / "b")
    os.makedirs(d2)
    _events_table(d2, ["click"] * 4 + ["purchase"] * 4,
                  [1.0, 2.0, 3.0, 4.0, 50.0, 60.0, 70.0, 80.0])
    sep = q_anderson_darling_2samp(d2).iloc[0]
    assert float(sep["ad_a2"]) > float(got["ad_a2"])


def _orders_table(d, months_prices):
    """months_prices: list of (iso_date, priority, price)."""
    pq.write_table(pa.table({
        "o_orderkey": pa.array(list(range(len(months_prices))),
                               type=pa.int64()),
        "o_orderdate": pa.array(
            [np.datetime64(m + "T00:00:00", "us")
             for m, _, _ in months_prices]),
        "o_orderpriority": pa.array([p for _, p, _ in months_prices]),
        "o_totalprice": pa.array([v for _, _, v in months_prices])}),
        os.path.join(d, "orders.parquet"))


_PRIOS = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
          "5-LOW"]


def test_pages_trend_perfect_monotone(tmp_path):
    """Revenue rising strictly with the 1→5 priority order in every
    month maximizes L: R2_j = 2·b·j so L2 = 2b·Σj² = 110b, and
    z = (L2 − 90b)/√(100b) = 2√b exactly.  The reversed order mirrors
    to the minimum 2b·Σ j(6−j) = 70b and z = −2√b."""
    from prclz_ray.pipelines.queries import q_pages_trend_test
    d = str(tmp_path / "up")
    os.makedirs(d)
    rows = []
    for m in ("1995-01-01", "1995-02-01", "1995-03-01", "1995-04-01"):
        for j, p in enumerate(_PRIOS):
            rows.append((m, p, 100.0 * (j + 1)))
    _orders_table(d, rows)
    out = q_pages_trend_test(d).iloc[0]
    b = 4
    assert int(out["n_months"]) == b
    assert int(out["page_l2"]) == 110 * b
    assert abs(float(out["z"]) - 2.0 * np.sqrt(b)) < 1e-6

    d2 = str(tmp_path / "down")
    os.makedirs(d2)
    rows = []
    for m in ("1995-01-01", "1995-02-01", "1995-03-01", "1995-04-01"):
        for j, p in enumerate(_PRIOS):
            rows.append((m, p, 100.0 * (5 - j)))
    _orders_table(d2, rows)
    out2 = q_pages_trend_test(d2).iloc[0]
    assert int(out2["page_l2"]) == 70 * b
    assert abs(float(out2["z"]) + 2.0 * np.sqrt(b)) < 1e-6


def test_pages_incomplete_months_dropped(tmp_path):
    """A month missing a priority is excluded from the blocks, same
    as the Friedman op's contract."""
    from prclz_ray.pipelines.queries import q_pages_trend_test
    d = str(tmp_path)
    rows = [("1995-01-01", p, 100.0 * (j + 1))
            for j, p in enumerate(_PRIOS)]
    rows += [("1995-02-01", p, 50.0) for p in _PRIOS[:4]]  # incomplete
    _orders_table(d, rows)
    out = q_pages_trend_test(d).iloc[0]
    assert int(out["n_months"]) == 1


def _customer_table(d, nations, balances):
    pq.write_table(pa.table({
        "c_custkey": pa.array(list(range(len(nations))),
                              type=pa.int64()),
        "c_nationkey": pa.array(nations, type=pa.int64()),
        "c_acctbal": pa.array(balances, type=pa.float64())}),
        os.path.join(d, "customer.parquet"))


def test_brown_forsythe_equal_spread_zero(tmp_path):
    """Two nations with identical deviation multisets around their
    (different) medians: the group mean absolute deviations coincide,
    BSS = 0 exactly, so W = 0 — location shifts alone cannot trigger
    the scale test (the whole point of the median center)."""
    from prclz_ray.pipelines.queries import q_brown_forsythe_nations
    d = str(tmp_path)
    _customer_table(d, [0] * 5 + [1] * 5,
                    [10.0, 11.0, 12.0, 13.0, 14.0,
                     50.0, 51.0, 52.0, 53.0, 54.0])
    out = q_brown_forsythe_nations(d).iloc[0]
    assert int(out["k_groups"]) == 2
    assert float(out["bf_w"]) == 0.0


def test_brown_forsythe_detects_spread(tmp_path):
    """One tight nation vs one 1000×-wider nation: W must blow well
    past the F(1,18) 1% critical value (~8.3)."""
    from prclz_ray.pipelines.queries import q_brown_forsythe_nations
    d = str(tmp_path)
    tight = [100.0 + 0.01 * i for i in range(10)]
    wide = [100.0 + 10.0 * i for i in range(10)]
    _customer_table(d, [0] * 10 + [1] * 10, tight + wide)
    out = q_brown_forsythe_nations(d).iloc[0]
    assert float(out["bf_w"]) > 20.0


def _emb_table(d, vecs):
    pq.write_table(pa.table({
        "vec_id": pa.array(list(range(len(vecs))), type=pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              type=pa.list_(pa.float64()))}),
        os.path.join(d, "embeddings.parquet"))


def test_cluster_validity_identical_points(tmp_path):
    """Three exact copies of seed centroid 0 and three of centroid 1:
    zero within-cluster scatter pins sigma = 0 and r_db = 0 for both
    clusters, and every point sits ON its empirical mean so the
    simplified silhouette is exactly 1."""
    from prclz_ray.pipelines.queries import (q_davies_bouldin_clusters, q_silhouette_simplified)
    from prclz_ray.pipelines.queries.common import _SEM_DIM, _SEM_K, _SEM_SEED
    from prclz_ray.stages.similarity import fixed_centroids
    C = fixed_centroids(_SEM_K, _SEM_DIM, _SEM_SEED)
    d = str(tmp_path)
    _emb_table(d, [C[0]] * 3 + [C[1]] * 3)
    db = q_davies_bouldin_clusters(d)
    assert sorted(db["cluster"].tolist()) == [0, 1]
    assert (db["sigma"] == 0.0).all()
    assert (db["r_db"] == 0.0).all()
    sil = q_silhouette_simplified(d)
    assert (sil["mean_ssil"] == 1.0).all()
    assert sil["n_points"].tolist() == [3, 3]


def test_cluster_validity_scaled_blobs(tmp_path):
    """Points c and 2c share the cosine direction, so both land in
    cluster c with empirical mean 1.5c and RMS radius exactly 0.5
    (unit centroids); the two blobs are far apart so CH is large,
    r_db < 1 and the silhouette is strongly positive."""
    from prclz_ray.pipelines.queries import (q_calinski_harabasz, q_davies_bouldin_clusters, q_silhouette_simplified)
    from prclz_ray.pipelines.queries.common import _SEM_DIM, _SEM_K, _SEM_SEED
    from prclz_ray.stages.similarity import fixed_centroids
    C = fixed_centroids(_SEM_K, _SEM_DIM, _SEM_SEED)
    d = str(tmp_path)
    _emb_table(d, [C[0], 2 * C[0], C[1], 2 * C[1]])
    ch = q_calinski_harabasz(d).iloc[0]
    assert int(ch["n_points"]) == 4
    assert int(ch["k_clusters"]) == 2
    assert float(ch["wss"]) > 0
    assert float(ch["ch_index"]) > 1.0
    db = q_davies_bouldin_clusters(d)
    assert np.allclose(db["sigma"].to_numpy(), 0.5, atol=1e-6)
    assert (db["r_db"] < 1.0).all()
    sil = q_silhouette_simplified(d)
    assert (sil["mean_ssil"] > 0.5).all()


def _ts_events(d, secs_of_day, values=None):
    """Events at given seconds-of-day on 2024-01-01, timestamp[us]."""
    base = np.datetime64("2024-01-01T00:00:00", "us")
    n = len(secs_of_day)
    pq.write_table(pa.table({
        "event_id": pa.array(list(range(n)), type=pa.int64()),
        "user_id": pa.array([1] * n, type=pa.int64()),
        "event_type": pa.array(["click"] * n),
        "ts": pa.array([base + np.timedelta64(int(s) * 1_000_000,
                                              "us")
                        for s in secs_of_day]),
        "value": pa.array(values or [1.0] * n, type=pa.float64())}),
        os.path.join(d, "events.parquet"))


def test_rayleigh_point_mass_and_uniform(tmp_path):
    """Every event at midnight: cos quantizes to exactly 1e6, sin to
    0, so rbar == 1.0 and the mean direction is hour 0.  One event
    per minute over the full cycle: the resultant collapses to the
    quantization residue, rbar ≈ 0."""
    from prclz_ray.pipelines.queries import q_rayleigh_test_minutes
    d = str(tmp_path / "mass")
    os.makedirs(d)
    _ts_events(d, [0] * 8)
    out = q_rayleigh_test_minutes(d).iloc[0]
    assert float(out["rbar"]) == 1.0
    assert float(out["rayleigh_z"]) == 8.0
    assert float(out["mean_dir_hour"]) == 0.0

    d2 = str(tmp_path / "unif")
    os.makedirs(d2)
    _ts_events(d2, [60 * m for m in range(1440)])
    out2 = q_rayleigh_test_minutes(d2).iloc[0]
    assert float(out2["rbar"]) < 0.001


def test_circlin_corr_detects_daily_value_cycle(tmp_path):
    """Values following cos(minute angle) give a circular-linear R²
    near 1; the same values against a plain linear minute index
    would wrap-break at midnight — the reason the op exists."""
    import math
    from prclz_ray.pipelines.queries import q_circlin_corr_minutes
    d = str(tmp_path)
    secs = [60 * m for m in range(0, 1440, 7)]
    vals = [100.0 + 50.0 * math.cos(2 * math.pi * (s // 60) / 1440.0)
            for s in secs]
    _ts_events(d, secs, vals)
    out = q_circlin_corr_minutes(d).iloc[0]
    assert float(out["r2_circlin"]) > 0.95
    assert abs(float(out["r_xs"])) < 0.3
    assert float(out["r_xc"]) > 0.97


def test_rao_spacing_regular_vs_point_mass(tmp_path):
    """Four perfectly evenly spaced events: every gap equals λ so
    u2n == 0 exactly.  Four events at ONE second: three zero-gaps
    plus the full-circle wrap gives u_seconds = (n−1)·86400/n =
    64800 and u_degrees = 270."""
    from prclz_ray.pipelines.queries import q_rao_spacing_seconds
    d = str(tmp_path / "even")
    os.makedirs(d)
    _ts_events(d, [0, 21600, 43200, 64800])
    out = q_rao_spacing_seconds(d).iloc[0]
    assert int(out["u2n"]) == 0
    assert float(out["u_seconds"]) == 0.0

    d2 = str(tmp_path / "mass")
    os.makedirs(d2)
    _ts_events(d2, [100] * 4)
    out2 = q_rao_spacing_seconds(d2).iloc[0]
    assert int(out2["n_distinct_seconds"]) == 1
    assert float(out2["u_seconds"]) == 64800.0
    assert float(out2["u_degrees"]) == 270.0


def _epi_tables(d, custs, order_counts):
    """custs: list of (nation, segment, acctbal); order_counts[i] =
    orders for customer i (custkey = i + 1)."""
    n = len(custs)
    pq.write_table(pa.table({
        "c_custkey": pa.array(list(range(1, n + 1)), type=pa.int64()),
        "c_nationkey": pa.array([c[0] for c in custs],
                                type=pa.int64()),
        "c_mktsegment": pa.array([c[1] for c in custs]),
        "c_acctbal": pa.array([c[2] for c in custs],
                              type=pa.float64())}),
        os.path.join(d, "customer.parquet"))
    oc = []
    for i, k in enumerate(order_counts):
        oc += [i + 1] * k
    pq.write_table(pa.table({
        "o_custkey": pa.array(oc, type=pa.int64())}),
        os.path.join(d, "orders.parquet"))


def test_cmh_no_association_within_strata(tmp_path):
    """ad = bc inside every stratum: each a − E_k clears to exactly 0
    so chi2 == 0 and the MH odds ratio == 1 — the
    controlled-for-confounder null the pooled 2×2 can't certify."""
    from prclz_ray.pipelines.queries import q_cmh_test_segments
    d = str(tmp_path)
    custs, orders = [], []

    def add(seg, pos, freq, k):
        for _ in range(k):
            custs.append((0, seg, 100.0 if pos else -100.0))
            orders.append(12 if freq else 1)
    # stratum A: 4/4/4/4 (ad=16=bc); stratum B: 1/2/2/4 (ad=4=bc)
    add("AUTO", 1, 1, 4); add("AUTO", 1, 0, 4)
    add("AUTO", 0, 1, 4); add("AUTO", 0, 0, 4)
    add("BLDG", 1, 1, 1); add("BLDG", 1, 0, 2)
    add("BLDG", 0, 1, 2); add("BLDG", 0, 0, 4)
    _epi_tables(d, custs, orders)
    out = q_cmh_test_segments(d).iloc[0]
    assert int(out["k_strata"]) == 2
    assert float(out["chi2_cmh"]) == 0.0
    assert float(out["or_mh"]) == 1.0


def test_cmh_detects_association(tmp_path):
    """a=5,b=1,c=1,d=5 in both strata: OR_MH = Σ(ad/N)/Σ(bc/N) = 25
    exactly and χ² is large."""
    from prclz_ray.pipelines.queries import q_cmh_test_segments
    d = str(tmp_path)
    custs, orders = [], []
    for seg in ("AUTO", "BLDG"):
        for _ in range(5):
            custs.append((0, seg, 100.0)); orders.append(12)
        custs.append((0, seg, 100.0)); orders.append(1)
        custs.append((0, seg, -100.0)); orders.append(12)
        for _ in range(5):
            custs.append((0, seg, -100.0)); orders.append(1)
    _epi_tables(d, custs, orders)
    out = q_cmh_test_segments(d).iloc[0]
    assert float(out["or_mh"]) == 25.0
    assert float(out["chi2_cmh"]) > 5.0


def test_smr_identical_nations_unity(tmp_path):
    """Two nations with the same composition and the same rates:
    expected == observed so SMR == 1 for both; tripling one nation's
    frequent buyers pushes its SMR above 1 and the other's below."""
    from prclz_ray.pipelines.queries import q_smr_nation_ordering
    d = str(tmp_path)
    custs, orders = [], []
    for nat in (0, 1):
        for _ in range(3):
            custs.append((nat, "AUTO", 100.0)); orders.append(12)
        for _ in range(3):
            custs.append((nat, "AUTO", 100.0)); orders.append(1)
    _epi_tables(d, custs, orders)
    out = q_smr_nation_ordering(d)
    assert (out["smr"] == 1.0).all()


def test_direct_standardization_removes_composition(tmp_path):
    """Segment A is all-frequent, segment B never: nation 0 (3A+1B,
    crude 0.75) and nation 1 (1A+3B, crude 0.25) both standardize to
    exactly 0.5 under the global half-A half-B standard — the
    age-adjustment property verbatim."""
    from prclz_ray.pipelines.queries import q_direct_std_rates_nation
    d = str(tmp_path)
    custs, orders = [], []
    for nat, na, nb in ((0, 3, 1), (1, 1, 3)):
        for _ in range(na):
            custs.append((nat, "SEGA", 100.0)); orders.append(12)
        for _ in range(nb):
            custs.append((nat, "SEGB", 100.0)); orders.append(1)
    _epi_tables(d, custs, orders)
    out = q_direct_std_rates_nation(d).set_index("g")
    assert float(out.loc[0, "crude_rate"]) == 0.75
    assert float(out.loc[1, "crude_rate"]) == 0.25
    assert float(out.loc[0, "std_rate"]) == 0.5
    assert float(out.loc[1, "std_rate"]) == 0.5


def _docs_table(d, sources, texts):
    n = len(texts)
    pq.write_table(pa.table({
        "doc_id": pa.array(list(range(n)), type=pa.int64()),
        "source": pa.array(sources),
        "text": pa.array(texts)}),
        os.path.join(d, "documents.parquet"))


def test_lexical_richness_family(tmp_path):
    """Hand-counted spectrum: 'a a a b b c' has N=6 V=3 V1=1 V2=1 —
    Honoré, Sichel and Brunet all verify against the closed forms;
    the all-hapax source returns NULL Honoré by convention; a
    repetitive source scores HIGHER Brunet W (poorer vocabulary)
    than a diverse one of the same length."""
    import math
    from prclz_ray.pipelines.queries import (
        q_brunet_w_sources, q_honore_r_sources, q_sichel_s_sources)
    d = str(tmp_path)
    _docs_table(d, ["s1", "s2", "s3", "s3"],
                ["a a a b b c",          # s1: spectrum above
                 "x y z",                # s2: all hapax -> NULL Honore
                 "w w w w",              # s3 doc 1
                 "w w w w"])             # s3: N=8 V=1
    hr = q_honore_r_sources(d).set_index("source")
    assert int(hr.loc["s1", "n_tokens"]) == 6
    assert int(hr.loc["s1", "vocab"]) == 3
    assert int(hr.loc["s1", "hapax"]) == 1
    want = 100.0 * math.log(6) / (1.0 - 1 / 3)
    assert abs(float(hr.loc["s1", "honore_r"]) - want) < 1e-6
    assert pd.isna(hr.loc["s2", "honore_r"])
    si = q_sichel_s_sources(d).set_index("source")
    assert abs(float(si.loc["s1", "sichel_s"]) - 1 / 3) < 1e-6
    assert int(si.loc["s3", "dis_legomena"]) == 0
    bw = q_brunet_w_sources(d).set_index("source")
    w1 = math.pow(6, math.pow(3, -0.165))
    assert abs(float(bw.loc["s1", "brunet_w"]) - w1) < 1e-6
    # same token count, poorer vocab => higher W
    assert float(bw.loc["s3", "brunet_w"]) \
        > math.pow(8, math.pow(8, -0.165)) - 1e-9


def test_myerson_reserve_argmax_and_ties(tmp_path):
    """[10,10,6,4]¢: r=10 earns 20 > 18 > 16, reserve 10.  [3,1,1]¢:
    r=3 and r=1 both earn 3 — the tie breaks to the LOWEST reserve
    (sell more at equal revenue)."""
    from prclz_ray.pipelines.queries import q_myerson_reserve_brands
    d = str(tmp_path)
    prices = [0.10, 0.10, 0.06, 0.04, 0.03, 0.01, 0.01]
    brands = ["B1"] * 4 + ["B2"] * 3
    pq.write_table(pa.table({
        "p_partkey": pa.array(list(range(len(prices))),
                              type=pa.int64()),
        "p_brand": pa.array(brands),
        "p_retailprice": pa.array(prices, type=pa.float64())}),
        os.path.join(d, "part.parquet"))
    out = q_myerson_reserve_brands(d).set_index("p_brand")
    assert int(out.loc["B1", "reserve_cents"]) == 10
    assert int(out.loc["B1", "revenue_cents"]) == 20
    assert int(out.loc["B1", "n_sold"]) == 2
    assert int(out.loc["B2", "reserve_cents"]) == 1
    assert int(out.loc["B2", "revenue_cents"]) == 3
    assert int(out.loc["B2", "n_sold"]) == 3


def test_littlewood_half_ratio_median(tmp_path):
    """Urgent fare 200, low fare 100 → critical ratio exactly 0.5, so
    the protection level is the empirical median of daily urgent
    demand: counts [1,2,3,4] → y* = 2."""
    from prclz_ray.pipelines.queries import q_littlewood_protection
    d = str(tmp_path)
    rows = []
    for day, n_urg in enumerate([1, 2, 3, 4]):
        date = np.datetime64(f"1995-01-0{day + 1}T00:00:00", "us")
        for _ in range(n_urg):
            rows.append((date, "1-URGENT", 200.0))
        rows.append((date, "5-LOW", 100.0))
    pq.write_table(pa.table({
        "o_orderkey": pa.array(list(range(len(rows))),
                               type=pa.int64()),
        "o_orderdate": pa.array([r[0] for r in rows]),
        "o_orderpriority": pa.array([r[1] for r in rows]),
        "o_totalprice": pa.array([r[2] for r in rows])}),
        os.path.join(d, "orders.parquet"))
    out = q_littlewood_protection(d).iloc[0]
    assert float(out["critical_ratio"]) == 0.5
    assert int(out["protection_level"]) == 2
    assert float(out["p1_cents"]) == 20000.0
    assert float(out["p2_cents"]) == 10000.0


def test_banzhaf_textbook_50_30_10_10(tmp_path):
    """Weights (50,30,10,10), majority quota: the big player is
    critical in 7 of 10 swings, every small player in exactly 1 —
    Banzhaf (0.7, 0.1, 0.1, 0.1) despite weight shares
    (0.5, 0.3, 0.1, 0.1): the power/weight gap the index exists to
    expose."""
    from prclz_ray.pipelines.queries import q_banzhaf_power_nations
    d = str(tmp_path)
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3, 4], type=pa.int64()),
        "c_nationkey": pa.array([0, 1, 2, 3], type=pa.int64())}),
        os.path.join(d, "customer.parquet"))
    pq.write_table(pa.table({
        "o_custkey": pa.array([1, 2, 3, 4], type=pa.int64()),
        "o_totalprice": pa.array([0.50, 0.30, 0.10, 0.10])}),
        os.path.join(d, "orders.parquet"))
    out = q_banzhaf_power_nations(d).set_index("n_nationkey")
    assert out.loc[0, "n_critical"] == 7
    assert float(out.loc[0, "banzhaf"]) == 0.7
    for nk in (1, 2, 3):
        assert out.loc[nk, "n_critical"] == 1
        assert float(out.loc[nk, "banzhaf"]) == 0.1


def test_weibull_mrr_two_point_exact(tmp_path):
    """Two orders with first-ship latencies 3 and 10 days: γ = 2, so
    x = (ln 1, ln 8) and the slope collapses to (y2−y1)/ln 8 with
    Bernard ranks F = (0.7/2.4, 1.7/2.4) — hand-computable."""
    import math
    from prclz_ray.pipelines.queries import q_weibull_mrr_latency
    d = str(tmp_path)
    base = np.datetime64("1995-01-01T00:00:00", "us")
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2], type=pa.int64()),
        "o_orderdate": pa.array([base, base])}),
        os.path.join(d, "orders.parquet"))
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 2], type=pa.int64()),
        "l_shipdate": pa.array([
            base + np.timedelta64(3 * 86_400_000_000, "us"),
            base + np.timedelta64(10 * 86_400_000_000, "us")])}),
        os.path.join(d, "lineitem.parquet"))
    out = q_weibull_mrr_latency(d).iloc[0]
    assert int(out["gamma_days"]) == 2
    y1 = math.log(-math.log(1.0 - 0.7 / 2.4))
    y2 = math.log(-math.log(1.0 - 1.7 / 2.4))
    want = (y2 - y1) / math.log(8)
    assert abs(float(out["shape_beta"]) - want) < 1e-5


def test_crow_amsaa_two_point_and_flag(tmp_path):
    """Errors: 1 on day d, 3 more a week later → points (t, N) =
    (1, 1), (8, 4): β = ln4/ln8 = 2/3 < 1 → improving."""
    import math
    from prclz_ray.pipelines.queries import q_crow_amsaa_errors
    d = str(tmp_path)
    base = np.datetime64("2024-01-01T00:00:00", "us")
    ts = [base] + [base + np.timedelta64(7 * 86_400_000_000, "us")] * 3
    n = len(ts)
    pq.write_table(pa.table({
        "event_id": pa.array(list(range(n)), type=pa.int64()),
        "user_id": pa.array([1] * n, type=pa.int64()),
        "event_type": pa.array(["error"] * n),
        "ts": pa.array(ts),
        "value": pa.array([0.0] * n)}),
        os.path.join(d, "events.parquet"))
    out = q_crow_amsaa_errors(d).iloc[0]
    assert int(out["n_error_days"]) == 2
    assert int(out["n_errors"]) == 4
    assert abs(float(out["beta_growth"])
               - math.log(4) / math.log(8)) < 1e-5
    assert bool(out["improving"])


def test_bass_exact_quadratic_recovery(tmp_path):
    """Adoptions (2, 3, 1) on consecutive days: the unique quadratic
    through (C, S) = (0,2), (2,3), (5,1) is a=2, b=29/30, c=−7/30 —
    the Cramer solve recovers it exactly and the structural m/p/q
    follow the stated root chain."""
    import math
    from prclz_ray.pipelines.queries import q_bass_diffusion_users
    d = str(tmp_path)
    base = np.datetime64("1995-06-01T00:00:00", "us")
    rows = []
    ck = 1
    for off, cnt in ((0, 2), (1, 3), (2, 1)):
        for _ in range(cnt):
            rows.append((ck, base + np.timedelta64(
                off * 86_400_000_000, "us")))
            ck += 1
    pq.write_table(pa.table({
        "o_custkey": pa.array([r[0] for r in rows], type=pa.int64()),
        "o_orderdate": pa.array([r[1] for r in rows])}),
        os.path.join(d, "orders.parquet"))
    out = q_bass_diffusion_users(d).iloc[0]
    assert int(out["n_days"]) == 3
    assert int(out["n_adopters"]) == 6
    assert abs(float(out["coef_a"]) - 2.0) < 1e-6
    assert abs(float(out["coef_b"]) - 29.0 / 30.0) < 1e-6
    assert abs(float(out["coef_c"]) + 7.0 / 30.0) < 1e-6
    ca, cb, cc = 2.0, 29.0 / 30.0, -7.0 / 30.0
    mp = (-cb - math.sqrt(cb * cb - 4 * ca * cc)) / (2 * cc)
    assert abs(float(out["m_potential"]) - mp) < 1e-4
    assert abs(float(out["p_innovation"]) - ca / mp) < 1e-4
    assert abs(float(out["q_imitation"]) + cc * mp) < 1e-4


def test_dem_derivative_family_single_island(tmp_path):
    """One customer (custkey 1, $100) lands at hash cell 732 — an
    interior island on a flat plain: curvature there is convex with
    laplacian exactly −4e, its east neighbor concave; TRI at the
    island is √(8e²); TPI reads ridge at the island, valley beside
    it, slope far away; border cells are NULL everywhere."""
    import math
    from prclz_ray.pipelines.queries import (
        q_curvature_grid, q_tpi_landforms, q_tri_grid)
    d = str(tmp_path)
    pq.write_table(pa.table({
        "c_custkey": pa.array([1], type=pa.int64()),
        "c_acctbal": pa.array([100.0])}),
        os.path.join(d, "customer.parquet"))
    h = ((1 * 104729) % 1000 // 32) * 32 + ((1 * 7919) % 1000) // 32
    assert h == 732
    cv = q_curvature_grid(d).set_index("cell")
    assert int(cv.loc[h, "laplacian"]) == -40000
    assert cv.loc[h, "curv_class"] == "convex"
    assert int(cv.loc[h + 1, "laplacian"]) == 10000
    assert cv.loc[h + 1, "curv_class"] == "concave"
    assert cv.loc[0, "curv_class"] is None
    tr = q_tri_grid(d).set_index("cell")
    assert int(tr.loc[h, "tri2"]) == 8 * 10000 * 10000
    assert abs(float(tr.loc[h, "tri"])
               - math.sqrt(8.0) * 10000) < 1e-5
    assert int(tr.loc[h + 1, "tri2"]) == 10000 * 10000
    tp = q_tpi_landforms(d).set_index("cell")
    assert int(tp.loc[h, "tpi8"]) == 80000
    assert tp.loc[h, "landform"] == "ridge"
    assert tp.loc[h + 1, "landform"] == "valley"
    assert tp.loc[100, "landform"] == "slope"


def _daily_orders(d, prices):
    """One order per consecutive day with the given totalprice."""
    base = np.datetime64("1995-01-01T00:00:00", "us")
    n = len(prices)
    pq.write_table(pa.table({
        "o_orderkey": pa.array(list(range(n)), type=pa.int64()),
        "o_orderdate": pa.array([
            base + np.timedelta64(i * 86_400_000_000, "us")
            for i in range(n)]),
        "o_totalprice": pa.array(prices, type=pa.float64())}),
        os.path.join(d, "orders.parquet"))


def test_sampen_constant_series_closed_form(tmp_path):
    """Constant revenue: σ = 0 so r = 0 and EVERY template matches —
    A/B collapses to (n−3)/(n−1) exactly, so SampEn = −ln(7/9) at
    n = 10; a spiky series scores strictly higher."""
    import math
    from prclz_ray.pipelines.queries import q_sample_entropy_revenue
    d = str(tmp_path / "const")
    os.makedirs(d)
    _daily_orders(d, [100.0] * 10)
    out = q_sample_entropy_revenue(d).iloc[0]
    n = 10
    assert int(out["b_pairs"]) == (n - 1) * (n - 2) // 2
    assert int(out["a_pairs"]) == (n - 2) * (n - 3) // 2
    assert abs(float(out["sampen"]) + math.log(7 / 9)) < 1e-6

    d2 = str(tmp_path / "spiky")
    os.makedirs(d2)
    _daily_orders(d2, [100.0, 900.0, 150.0, 800.0, 120.0,
                       950.0, 110.0, 700.0, 130.0, 850.0])
    out2 = q_sample_entropy_revenue(d2).iloc[0]
    assert float(out2["sampen"]) > float(out["sampen"])


def test_spectral_entropy_tone_vs_delta(tmp_path):
    """A clean weekly cycle concentrates periodogram power (low
    entropy); a single-day delta spreads it nearly flat (high
    entropy)."""
    import math
    from prclz_ray.pipelines.queries import q_spectral_entropy_revenue
    d = str(tmp_path / "tone")
    os.makedirs(d)
    prices = [100.0 + 50.0 * math.cos(2 * math.pi * i / 7.0)
              for i in range(70)]
    _daily_orders(d, prices)
    tone = q_spectral_entropy_revenue(d).iloc[0]
    d2 = str(tmp_path / "delta")
    os.makedirs(d2)
    _daily_orders(d2, [100.0] * 35 + [5000.0] + [100.0] * 34)
    delta = q_spectral_entropy_revenue(d2).iloc[0]
    assert float(tone["spectral_entropy"]) < 0.5
    assert float(delta["spectral_entropy"]) > 0.8
    assert float(delta["spectral_entropy"]) \
        > float(tone["spectral_entropy"])


def test_higuchi_line_vs_jagged(tmp_path):
    """A straight ramp has curve length L(k) ∝ 1/k, so FD ≈ 1; a
    hash-jagged series is rougher — FD well above the ramp's."""
    from prclz_ray.pipelines.queries import q_higuchi_fd_revenue
    d = str(tmp_path / "ramp")
    os.makedirs(d)
    _daily_orders(d, [100.0 + 10.0 * i for i in range(64)])
    ramp = q_higuchi_fd_revenue(d).iloc[0]
    assert abs(float(ramp["higuchi_fd"]) - 1.0) < 0.02
    d2 = str(tmp_path / "jag")
    os.makedirs(d2)
    _daily_orders(d2, [100.0 + ((i * 7919) % 997) for i in range(64)])
    jag = q_higuchi_fd_revenue(d2).iloc[0]
    # the modular sequence is quasi-periodic, not white — FD ~1.28,
    # well above the ramp's 1.0 but below a true-noise 2
    assert float(jag["higuchi_fd"]) > 1.2
    assert float(jag["higuchi_fd"]) > float(ramp["higuchi_fd"]) + 0.2


def test_taylors_law_collinear_types(tmp_path):
    """Three event types engineered onto the Var = Mean² line over a
    two-day calendar: (mean, var) = (1,1), (2,4), (½,¼) — all
    collinear in log-log with slope exactly 2 (the clustered
    regime), intercept 0."""
    from prclz_ray.pipelines.queries import q_taylors_law_events
    d = str(tmp_path)
    types = ["X"] * 2 + ["Y"] * 4 + ["Z"]
    secs = [0] * 6 + [86400]
    _ts_events(d, secs, [1.0] * 7)
    # overwrite with per-type labels
    base = np.datetime64("2024-01-01T00:00:00", "us")
    pq.write_table(pa.table({
        "event_id": pa.array(list(range(7)), type=pa.int64()),
        "user_id": pa.array([1] * 7, type=pa.int64()),
        "event_type": pa.array(types),
        "ts": pa.array([base + np.timedelta64(s * 1_000_000, "us")
                        for s in secs]),
        "value": pa.array([1.0] * 7)}),
        os.path.join(d, "events.parquet"))
    out = q_taylors_law_events(d).iloc[0]
    assert int(out["n_days"]) == 2
    assert int(out["k_types"]) == 3
    assert abs(float(out["slope_b"]) - 2.0) < 1e-6
    assert abs(float(out["intercept_ln_a"])) < 1e-6


def test_gibrat_size_independent_growth(tmp_path):
    """Both customers double: growth is constant so the slope on
    ln size is exactly 0 (Gibrat holds) and r is NULL (zero growth
    variance).  A mean-reverting fixture turns the slope negative."""
    from prclz_ray.pipelines.queries import q_gibrat_law_customers
    d = str(tmp_path / "gibrat")
    os.makedirs(d)
    base = np.datetime64("1995-01-01T00:00:00", "us")
    late = np.datetime64("1996-12-30T00:00:00", "us")
    pq.write_table(pa.table({
        "o_custkey": pa.array([1, 2, 1, 2], type=pa.int64()),
        "o_orderdate": pa.array([base, base, late, late]),
        "o_totalprice": pa.array([100.0, 200.0, 200.0, 400.0])}),
        os.path.join(d, "orders.parquet"))
    out = q_gibrat_law_customers(d).iloc[0]
    assert int(out["n_customers"]) == 2
    assert float(out["slope"]) == 0.0
    assert pd.isna(out["pearson_r"])

    d2 = str(tmp_path / "revert")
    os.makedirs(d2)
    pq.write_table(pa.table({
        "o_custkey": pa.array([1, 2, 1, 2], type=pa.int64()),
        "o_orderdate": pa.array([base, base, late, late]),
        "o_totalprice": pa.array([100.0, 10000.0, 400.0, 10000.0])}),
        os.path.join(d2, "orders.parquet"))
    out2 = q_gibrat_law_customers(d2).iloc[0]
    assert float(out2["slope"]) < -0.1


def test_james_stein_full_shrink_to_grand_mean(tmp_path):
    """Four nations with (nearly) equal means but large within-group
    spread: S tiny, v̄ large → the positive-part factor clamps to 0
    and every JS mean collapses to the grand mean exactly."""
    from prclz_ray.pipelines.queries import q_james_stein_nations
    d = str(tmp_path)
    nations, bals = [], []
    for nk in range(4):
        eps = 0.01 * nk
        nations += [nk, nk]
        bals += [100.0 + eps - 90.0, 100.0 + eps + 90.0]
    _customer_table(d, nations, bals)
    out = q_james_stein_nations(d)
    assert len(out) == 4
    js = out["js_mean"].to_numpy()
    assert np.allclose(js, js[0])
    assert not np.allclose(out["raw_mean"].to_numpy(), js[0])


def test_two_stage_limits_bracket_jm_and_dirichlet(tmp_path):
    """On a matching-doc corpus the two-stage scorer produces valid
    integer keys and ranks the term-dense doc first, like its two
    parents."""
    from prclz_ray.pipelines.queries import q_two_stage_retrieval
    d = str(tmp_path)
    _docs_table(d, ["s"] * 3,
                ["join merge sort join",      # dense
                 "join filler filler filler filler filler",
                 "nothing relevant here at all"])
    out = q_two_stage_retrieval(d)
    assert int(out.iloc[0]["doc_id"]) == 0
    assert out["score9"].is_monotonic_decreasing


def test_ranker_tau_perfect_agreement(tmp_path):
    """Docs whose JM and pivoted orderings coincide give τ-b = 1 on
    the strictly-ordered pairs."""
    from prclz_ray.pipelines.queries import q_ranker_agreement_tau
    d = str(tmp_path)
    _docs_table(d, ["s"] * 3,
                ["join join join merge sort",
                 "join merge filler filler filler",
                 "filler filler filler filler filler filler"])
    out = q_ranker_agreement_tau(d).iloc[0]
    assert int(out["n_docs"]) == 3
    assert int(out["discordant"]) == 0
    assert float(out["tau_b"]) == 1.0


def test_rake_textbook_scoring(tmp_path):
    """'deep learning' as a repeated 2-word phrase between stopword
    delimiters: deg(deep) = deg(learning) = 4 over freq 2 → each
    word scores 2, the phrase 4 — strictly above the lone 'systems'
    (score 1)."""
    from prclz_ray.pipelines.queries import q_rake_keywords
    d = str(tmp_path)
    _docs_table(d, ["s"] * 2,
                ["deep learning is the deep learning",
                 "systems and the"])
    out = q_rake_keywords(d).set_index("phrase")
    assert int(out.loc["deep learning", "n_occurrences"]) == 2
    assert float(out.loc["deep learning", "rake_score"]) == 4.0
    assert float(out.loc["systems", "rake_score"]) == 1.0


def _cust_keys(d, keys):
    pq.write_table(pa.table({
        "c_custkey": pa.array(keys, type=pa.int64())}),
        os.path.join(d, "customer.parquet"))


def _keys_for_cells(wanted, limit=200000):
    """Find custkeys hashing to the wanted cells."""
    out = {}
    k = 1
    while wanted - set(out) and k < limit:
        cell = (((k * 104729) % 1000) // 32) * 32 \
            + ((k * 7919) % 1000) // 32
        if cell in wanted and cell not in out:
            out[cell] = k
        k += 1
    return out


def test_boxcount_single_point_fd_zero(tmp_path):
    """One occupied cell: N(s) = 1 at every scale → FD exactly 0;
    filling every hash-REACHABLE cell (311 of 1024 — the custkey
    hash only visits 311 residues) gives a spread-out mass with FD
    strictly between 1 and 2."""
    from prclz_ray.pipelines.queries import q_boxcount_fd_cells
    d = str(tmp_path / "one")
    os.makedirs(d)
    _cust_keys(d, [1])
    out = q_boxcount_fd_cells(d).iloc[0]
    assert [int(out[c]) for c in ("n1", "n2", "n4", "n8", "n16")] \
        == [1, 1, 1, 1, 1]
    assert float(out["boxcount_fd"]) == 0.0

    d2 = str(tmp_path / "full")
    os.makedirs(d2)
    _cust_keys(d2, list(range(1, 1001)))
    out2 = q_boxcount_fd_cells(d2).iloc[0]
    assert int(out2["n1"]) == 311
    assert int(out2["n16"]) == 4
    assert 1.0 < float(out2["boxcount_fd"]) < 2.0


def test_lacunarity_single_point_pins_box_count(tmp_path):
    """A single occupied cell is maximal gappiness: one box carries
    all the mass, so Λ(r) = B = (32/r)² exactly — [1024, 256, 64,
    16]."""
    from prclz_ray.pipelines.queries import q_lacunarity_cells
    d = str(tmp_path)
    _cust_keys(d, [1])
    out = q_lacunarity_cells(d)
    assert out["lacunarity"].tolist() == [1024.0, 256.0, 64.0, 16.0]


def test_mantel_distance_tracks_revenue(tmp_path):
    """Three nations on one grid row (reachable cells 704, 705, 708)
    with revenue proportional to column: distance and revenue gap
    are exactly proportional → Mantel r = 1."""
    from prclz_ray.pipelines.queries import q_mantel_cells_revenue
    d = str(tmp_path)
    m = _keys_for_cells({704, 705, 708})
    assert len(m) == 3
    ks = [m[704], m[705], m[708]]
    pq.write_table(pa.table({
        "c_custkey": pa.array(ks, type=pa.int64()),
        "c_nationkey": pa.array([0, 1, 2], type=pa.int64())}),
        os.path.join(d, "customer.parquet"))
    # revenue proportional to the cell column (cx = 0, 1, 4)
    pq.write_table(pa.table({
        "o_custkey": pa.array(ks, type=pa.int64()),
        "o_totalprice": pa.array([100.0, 200.0, 500.0])}),
        os.path.join(d, "orders.parquet"))
    out = q_mantel_cells_revenue(d).iloc[0]
    assert int(out["n_pairs"]) == 3
    assert float(out["mantel_r"]) == 1.0


def test_kingman_deterministic_arrivals(tmp_path):
    """Purchases every 10 s with constant value: both SCVs are
    exactly 0, so the Kingman wait is exactly 0 — a D/D/1 queue
    never waits below saturation."""
    from prclz_ray.pipelines.queries import q_kingman_vut_wait
    d = str(tmp_path)
    _ts_events(d, [10 * i for i in range(20)], [5.0] * 20)
    # _ts_events writes clicks; rewrite types to purchase
    t = pq.read_table(os.path.join(d, "events.parquet"))
    t = t.set_column(t.schema.get_field_index("event_type"),
                     "event_type", pa.array(["purchase"] * 20))
    pq.write_table(t, os.path.join(d, "events.parquet"))
    out = q_kingman_vut_wait(d).iloc[0]
    assert float(out["ca2"]) == 0.0
    assert float(out["cs2"]) == 0.0
    assert float(out["wq_kingman_sec"]) == 0.0


def test_littles_law_identity_and_values(tmp_path):
    """Two users with one 100 s session each, offset 50 s: horizon
    150 s, sweep area = 200 s-session = Σ durations (identity gap
    0), L = 4/3."""
    from prclz_ray.pipelines.queries import q_littles_law_sessions
    d = str(tmp_path)
    secs = [0, 50, 100] + [50, 100, 150]
    users = [1, 1, 1, 2, 2, 2]
    base = np.datetime64("2024-01-01T00:00:00", "us")
    pq.write_table(pa.table({
        "event_id": pa.array(list(range(6)), type=pa.int64()),
        "user_id": pa.array(users, type=pa.int64()),
        "event_type": pa.array(["click"] * 6),
        "ts": pa.array([base + np.timedelta64(s * 1_000_000, "us")
                        for s in secs]),
        "value": pa.array([1.0] * 6)}),
        os.path.join(d, "events.parquet"))
    out = q_littles_law_sessions(d).iloc[0]
    assert int(out["n_sessions"]) == 2
    assert int(out["identity_gap"]) == 0
    assert int(out["sum_duration_sec"]) == 200
    assert abs(float(out["l_time_avg"]) - 4.0 / 3.0) < 1e-6


def test_jain_fairness_extremes(tmp_path):
    """Orderkeys spread over many values give a high Jain index;
    many copies of ONE key give exactly J = 1/64 (all mass on one
    bucket) with cv = √63."""
    import math
    from prclz_ray.pipelines.queries import q_jain_fairness_buckets
    d = str(tmp_path / "even")
    os.makedirs(d)
    pq.write_table(pa.table({
        "l_orderkey": pa.array(list(range(1, 6401)),
                               type=pa.int64())}),
        os.path.join(d, "lineitem.parquet"))
    out = q_jain_fairness_buckets(d).iloc[0]
    assert float(out["jain_index"]) > 0.9

    d2 = str(tmp_path / "skew")
    os.makedirs(d2)
    pq.write_table(pa.table({
        "l_orderkey": pa.array([7] * 640, type=pa.int64())}),
        os.path.join(d2, "lineitem.parquet"))
    out2 = q_jain_fairness_buckets(d2).iloc[0]
    assert abs(float(out2["jain_index"]) - 1.0 / 64.0) < 1e-6
    assert abs(float(out2["cv"]) - math.sqrt(63.0)) < 1e-6


def test_bloom_advisor_closed_form(tmp_path):
    """1000 distinct keys at 1% FPR: m = 1000·9.585… ≈ 9585 bits,
    k = 7 — the textbook numbers."""
    import math
    from prclz_ray.pipelines.queries import q_bloom_size_advisor
    d = str(tmp_path)
    pq.write_table(pa.table({
        "o_custkey": pa.array(list(range(1000)) * 2,
                              type=pa.int64())}),
        os.path.join(d, "orders.parquet"))
    out = q_bloom_size_advisor(d).set_index("target_fpr")
    m = -1000 * math.log(0.01) / (math.log(2.0) ** 2)
    assert int(out.loc[0.01, "n_keys"]) == 1000
    assert int(out.loc[0.01, "bits"]) == int(np.floor(m + 0.5))
    assert int(out.loc[0.01, "n_hashes"]) == 7
    assert int(out.loc[0.0001, "n_hashes"]) == 13


def test_capm_beta_market_decomposition(tmp_path):
    """Type A IS half the market every day (beta 1 at half scale…):
    with A = 2·day and B = day cents patterns, market = 3·day; A's
    beta = 2/3 and B's = 1/3 exactly, betas sum to 1, both R² = 1
    (perfect co-movement)."""
    from prclz_ray.pipelines.queries import q_capm_beta_types
    d = str(tmp_path)
    base = np.datetime64("2024-01-01T00:00:00", "us")
    rows = []
    for day in range(5):
        ts = base + np.timedelta64(day * 86_400_000_000, "us")
        rows.append(("A", ts, 2.0 * (day + 1)))
        rows.append(("B", ts, 1.0 * (day + 1)))
    pq.write_table(pa.table({
        "event_id": pa.array(list(range(len(rows))),
                             type=pa.int64()),
        "user_id": pa.array([1] * len(rows), type=pa.int64()),
        "event_type": pa.array([r[0] for r in rows]),
        "ts": pa.array([r[1] for r in rows]),
        "value": pa.array([r[2] for r in rows])}),
        os.path.join(d, "events.parquet"))
    out = q_capm_beta_types(d).set_index("event_type")
    assert abs(float(out.loc["A", "beta"]) - 2.0 / 3.0) < 1e-6
    assert abs(float(out.loc["B", "beta"]) - 1.0 / 3.0) < 1e-6
    assert float(out.loc["A", "r2"]) == 1.0
    assert float(out.loc["B", "r2"]) == 1.0


def test_vwap_hand_computed(tmp_path):
    """Two fills on one day: 10 units at $2 + 30 units at $4 →
    VWAP = 140/40 = $3.50 exactly."""
    from prclz_ray.pipelines.queries import q_vwap_daily_lineitem
    d = str(tmp_path)
    base = np.datetime64("1995-03-01T00:00:00", "us")
    pq.write_table(pa.table({
        "l_shipdate": pa.array([base, base]),
        "l_extendedprice": pa.array([20.0, 120.0]),
        "l_quantity": pa.array([10.0, 30.0])}),
        os.path.join(d, "lineitem.parquet"))
    out = q_vwap_daily_lineitem(d).iloc[0]
    assert int(out["total_qty"]) == 40
    assert int(out["notional_cents"]) == 14000
    assert float(out["vwap"]) == 3.5


def test_bornhuetter_ferguson_mature_origin_no_ibnr(tmp_path):
    """An origin observed through lag 4 has CDF = 1 so BF adds
    nothing: bf_ultimate == latest and bf_ibnr == 0 exactly; a
    censored origin gets strictly positive IBNR when factors
    exceed 1."""
    from prclz_ray.pipelines.queries import q_bornhuetter_ferguson
    d = str(tmp_path)
    rows = []
    ok = 1
    # 8 origin months, each order ships half now, half next month
    for m in range(8):
        date = np.datetime64(f"1995-{m + 1:02d}-15T00:00:00", "us")
        rows.append((ok, date))
        ok += 1
    pq.write_table(pa.table({
        "o_orderkey": pa.array([r[0] for r in rows],
                               type=pa.int64()),
        "o_orderdate": pa.array([r[1] for r in rows])}),
        os.path.join(d, "orders.parquet"))
    li = []
    for k, date in rows:
        li.append((k, date, 100.0, 0.0))
        li.append((k, date + np.timedelta64(32 * 86_400_000_000,
                                            "us"), 100.0, 0.0))
    pq.write_table(pa.table({
        "l_orderkey": pa.array([r[0] for r in li], type=pa.int64()),
        "l_shipdate": pa.array([r[1] for r in li]),
        "l_extendedprice": pa.array([r[2] for r in li]),
        "l_discount": pa.array([r[3] for r in li])}),
        os.path.join(d, "lineitem.parquet"))
    out = q_bornhuetter_ferguson(d).set_index("origin_month")
    mature = out[out["dev_observed"] == 4]
    assert len(mature) > 0
    assert (mature["cdf"] == 1.0).all()
    assert (mature["bf_ibnr_e4"] == 0.0).all()
    green = out[out["dev_observed"] == 0]
    assert (green["bf_ibnr_e4"] > 0).all()


def test_craigs_zeta_exclusive_marker(tmp_path):
    """A word in every A doc and no B doc scores ζ = 2 exactly and
    ranks first; a word in every doc of both sides scores ζ = 1."""
    from prclz_ray.pipelines.queries import q_craigs_zeta_sources
    d = str(tmp_path)
    _docs_table(d, ["A", "A", "A", "B", "B"],
                ["alpha common x", "alpha common y", "alpha common z",
                 "common p", "common q"])
    out = q_craigs_zeta_sources(d).set_index("word")
    assert float(out.loc["alpha", "zeta"]) == 2.0
    assert out.index[0] == "alpha"
    assert float(out.loc["common", "zeta"]) == 1.0


def test_fightin_words_direction_and_symmetry(tmp_path):
    """A word heavily overused by side A lands on side 'a' with a
    positive z; the mirrored word lands on 'b' negative — and the
    engineered symmetric corpus gives them equal-magnitude
    z-scores."""
    from prclz_ray.pipelines.queries import q_fightin_words_sources
    d = str(tmp_path)
    a_docs = ["aaa bbb ccc ddd eee"] * 3 + ["xxx xxx xxx xxx xxx"]
    b_docs = ["aaa bbb ccc ddd eee"] * 3 + ["yyy yyy yyy yyy yyy"]
    _docs_table(d, ["A"] * 4 + ["B"] * 4, a_docs + b_docs)
    out = q_fightin_words_sources(d)
    x = out[out["word"] == "xxx"].iloc[0]
    y = out[out["word"] == "yyy"].iloc[0]
    assert x["side"] == "a" and float(x["zscore"]) > 0
    assert y["side"] == "b" and float(y["zscore"]) < 0
    assert abs(float(x["zscore"]) + float(y["zscore"])) < 1e-6


def test_raking_balanced_table_weights_one(tmp_path):
    """A perfectly balanced 2×2 table already satisfies uniform
    margins: every IPF weight is exactly 1 and each row margin is
    exactly 1/2."""
    from prclz_ray.pipelines.queries import q_raking_ipf_weights
    d = str(tmp_path)
    custs, orders = [], []
    for nk in (0, 1):
        for seg in ("SEGA", "SEGB"):
            for _ in range(5):
                custs.append((nk, seg, 100.0))
                orders.append(1)
    _epi_tables(d, custs, orders)
    out = q_raking_ipf_weights(d)
    assert len(out) == 4
    assert (out["weight"] == 1.0).all()
    assert (out["row_margin"] == 0.5).all()


def test_raking_corrects_skewed_rows(tmp_path):
    """One nation over-sampled 3:1: after raking its cells carry
    weight < 1 and the under-sampled nation's > 1, with both row
    margins pulled to ~1/2."""
    from prclz_ray.pipelines.queries import q_raking_ipf_weights
    d = str(tmp_path)
    custs, orders = [], []
    for seg in ("SEGA", "SEGB"):
        for _ in range(9):
            custs.append((0, seg, 100.0)); orders.append(1)
        for _ in range(3):
            custs.append((1, seg, 100.0)); orders.append(1)
    _epi_tables(d, custs, orders)
    out = q_raking_ipf_weights(d)
    w0 = out[out["g"] == 0]["weight"]
    w1 = out[out["g"] == 1]["weight"]
    assert (w0 < 1.0).all()
    assert (w1 > 1.0).all()
    rm = out.groupby("g")["row_margin"].first()
    assert np.allclose(rm.to_numpy(), 0.5, atol=1e-6)


def test_stratified_att_hand_computed(tmp_path):
    """Stratum A: treated rate 1.0 vs control 0.0 (effect 1);
    stratum B: 0.5 vs 0.5 (effect 0); treated counts 2 and 2 →
    ATT = 0.5 exactly.  A stratum with no controls is dropped and
    its treated count surfaces in the overlap diagnostic."""
    from prclz_ray.pipelines.queries import q_stratified_att_segments
    d = str(tmp_path)
    custs, orders = [], []
    # stratum A
    custs += [(0, "SA", 100.0)] * 2; orders += [12, 12]
    custs += [(0, "SA", -100.0)] * 2; orders += [1, 1]
    # stratum B
    custs += [(0, "SB", 100.0)] * 2; orders += [12, 1]
    custs += [(0, "SB", -100.0)] * 2; orders += [12, 1]
    # stratum C: treated only -> dropped
    custs += [(0, "SC", 100.0)] * 3; orders += [12, 12, 12]
    _epi_tables(d, custs, orders)
    out = q_stratified_att_segments(d).iloc[0]
    assert int(out["n_strata"]) == 2
    assert int(out["n_treated"]) == 4
    assert int(out["n_treated_unsupported"]) == 3
    assert float(out["att"]) == 0.5


def test_price_elasticity_exact_powerlaw(tmp_path):
    """Parts lying exactly on q = 1000·price⁻²: the log-log OLS
    recovers elasticity −2 (to quantization)."""
    from prclz_ray.pipelines.queries import q_price_elasticity_parts
    d = str(tmp_path)
    rows = []
    for pk, price, qty in ((1, 1.0, 1000), (2, 2.0, 250),
                           (3, 4.0, 62), (4, 10.0, 10)):
        # one lineitem per part: extendedprice = price*qty
        rows.append((pk, price * qty, float(qty)))
    pq.write_table(pa.table({
        "l_partkey": pa.array([r[0] for r in rows], type=pa.int64()),
        "l_extendedprice": pa.array([r[1] for r in rows]),
        "l_quantity": pa.array([r[2] for r in rows])}),
        os.path.join(d, "lineitem.parquet"))
    out = q_price_elasticity_parts(d).iloc[0]
    assert int(out["n_parts"]) == 4
    assert abs(float(out["elasticity"]) + 2.0) < 0.02


def _li_disc_tax(d, pairs):
    pq.write_table(pa.table({
        "l_discount": pa.array([p[0] for p in pairs]),
        "l_tax": pa.array([p[1] for p in pairs])}),
        os.path.join(d, "lineitem.parquet"))


def test_gamma_vs_somers_on_tied_grid(tmp_path):
    """Perfect monotone grid with ties: C = 1·1 pairs only along the
    diagonal — γ = 1 exactly (ties ignored) while Somers' D sits
    strictly below 1 (tied pairs in its denominator): the
    three-measures-disagree lesson in one fixture."""
    from prclz_ray.pipelines.queries import (
        q_goodman_kruskal_gamma, q_somers_d_discount_tax)
    d = str(tmp_path)
    # two per cell on a monotone diagonal + within-cell ties
    pairs = [(0.01, 0.01)] * 2 + [(0.02, 0.02)] * 2 \
        + [(0.03, 0.03)] * 2
    _li_disc_tax(d, pairs)
    ga = q_goodman_kruskal_gamma(d).iloc[0]
    assert int(ga["disc"]) == 0
    assert float(ga["gamma"]) == 1.0
    so = q_somers_d_discount_tax(d).iloc[0]
    # on this symmetric-tie grid D equals gamma (12 concordant over
    # n0 - n1 = 12); an asymmetric-tie fixture splits them:
    assert float(so["somers_d_yx"]) == 1.0
    d2 = str(tmp_path / "b")
    os.makedirs(d2)
    # (2,2)-(2,3) tie in x and (2,3)-(3,3) tie in y: C=4 D=0,
    # gamma = 1 but D_yx = 4/(6-1) = 0.8
    pairs2 = [(0.01, 0.01), (0.02, 0.02), (0.02, 0.03),
              (0.03, 0.03)]
    _li_disc_tax(d2, pairs2)
    ga2 = q_goodman_kruskal_gamma(d2).iloc[0]
    so2 = q_somers_d_discount_tax(d2).iloc[0]
    assert float(ga2["gamma"]) == 1.0
    assert float(so2["somers_d_yx"]) == 0.8
    assert float(so2["somers_d_xy"]) == 0.8


def test_brunner_munzel_symmetric_zero(tmp_path):
    """Identical click and purchase multisets: p̂ = ½ exactly and
    the BM statistic is 0; shifting purchases up makes p̂ > ½ and
    W > 0."""
    from prclz_ray.pipelines.queries import q_brunner_munzel_value
    d = str(tmp_path / "sym")
    os.makedirs(d)
    vals = [1.0, 2.0, 3.0, 4.0, 5.0]
    _events_table(d, ["click"] * 5 + ["purchase"] * 5, vals + vals)
    out = q_brunner_munzel_value(d).iloc[0]
    assert float(out["p_hat"]) == 0.5
    assert float(out["bm_w"]) == 0.0

    d2 = str(tmp_path / "shift")
    os.makedirs(d2)
    _events_table(d2, ["click"] * 5 + ["purchase"] * 5,
                  vals + [v + 10.0 for v in vals])
    out2 = q_brunner_munzel_value(d2).iloc[0]
    assert float(out2["p_hat"]) == 1.0
    # complete separation degenerates the rank variances -> NULL by
    # the stated guard
    assert pd.isna(out2["bm_w"])


def test_imr_constant_series_zero_ranges(tmp_path):
    """Constant daily revenue: every moving range is 0 so M̄R = 0,
    the limits collapse onto x̄ and nothing is out of control."""
    from prclz_ray.pipelines.queries import q_imr_chart_revenue
    d = str(tmp_path)
    _daily_orders(d, [100.0] * 12)
    out = q_imr_chart_revenue(d).iloc[0]
    assert float(out["mrbar_c"]) == 0.0
    assert float(out["ucl_x_c"]) == float(out["lcl_x_c"]) == 10000.0
    assert int(out["n_x_ooc"]) == 0
    assert int(out["n_mr_ooc"]) == 0


def test_imr_detects_spike(tmp_path):
    """One 100× day in an otherwise flat series trips both the
    individuals and the moving-range charts."""
    from prclz_ray.pipelines.queries import q_imr_chart_revenue
    d = str(tmp_path)
    _daily_orders(d, [100.0] * 10 + [10000.0] + [100.0] * 10)
    out = q_imr_chart_revenue(d).iloc[0]
    assert int(out["n_x_ooc"]) >= 1
    assert int(out["n_mr_ooc"]) >= 1


def test_c_chart_poisson_limits(tmp_path):
    """Four errors every day for 9 days: c̄ = 4, UCL = 4 + 3·2 = 10,
    LCL = 0 (clamped), nothing out; a 20-error day lands above."""
    from prclz_ray.pipelines.queries import q_c_chart_errors
    d = str(tmp_path)
    secs, types = [], []
    for day in range(9):
        for i in range(4):
            secs.append(day * 86400 + i)
            types.append("error")
        secs.append(day * 86400 + 100)
        types.append("click")
    base = np.datetime64("2024-01-01T00:00:00", "us")
    n = len(secs)
    pq.write_table(pa.table({
        "event_id": pa.array(list(range(n)), type=pa.int64()),
        "user_id": pa.array([1] * n, type=pa.int64()),
        "event_type": pa.array(types),
        "ts": pa.array([base + np.timedelta64(s * 1_000_000, "us")
                        for s in secs]),
        "value": pa.array([1.0] * n)}),
        os.path.join(d, "events.parquet"))
    out = q_c_chart_errors(d).iloc[0]
    assert float(out["cbar"]) == 4.0
    assert float(out["ucl"]) == 10.0
    assert float(out["lcl"]) == 0.0
    assert int(out["n_above_ucl"]) == 0


def test_aitchison_constant_composition_zero(tmp_path):
    """Revenue shares identical in every month (composition is
    constant on the simplex): every log-ratio is constant across
    months so the Aitchison total variance is exactly 0 — even
    though the absolute LEVELS double (the lesson: totvar is
    scale-free)."""
    from prclz_ray.pipelines.queries import (
        q_aitchison_variation_segments)
    d = str(tmp_path)
    custs, orders_n = [], []
    ck = 1
    rows_o = []
    for m, scale in ((1, 1.0), (2, 2.0), (3, 4.0)):
        date = np.datetime64(f"1995-{m:02d}-10T00:00:00", "us")
        for seg, share in (("SEGA", 100.0), ("SEGB", 300.0)):
            custs.append((0, seg, 100.0))
            rows_o.append((ck, date, share * scale))
            ck += 1
    pq.write_table(pa.table({
        "c_custkey": pa.array(list(range(1, len(custs) + 1)),
                              type=pa.int64()),
        "c_nationkey": pa.array([c[0] for c in custs],
                                type=pa.int64()),
        "c_mktsegment": pa.array([c[1] for c in custs]),
        "c_acctbal": pa.array([c[2] for c in custs])}),
        os.path.join(d, "customer.parquet"))
    pq.write_table(pa.table({
        "o_custkey": pa.array([r[0] for r in rows_o],
                              type=pa.int64()),
        "o_orderdate": pa.array([r[1] for r in rows_o]),
        "o_totalprice": pa.array([r[2] for r in rows_o])}),
        os.path.join(d, "orders.parquet"))
    out = q_aitchison_variation_segments(d).iloc[0]
    assert int(out["n_months"]) == 3
    assert float(out["total_variance"]) == 0.0


def test_fellegi_sunter_pattern_census(tmp_path):
    """One brand block with 3 parts: (T1,1), (T1,1), (T1,2) → pairs:
    both-agree 1 (the two identical), type-only 2, size-only 0,
    neither 0 — and both-agree carries the largest weight."""
    from prclz_ray.pipelines.queries import q_fellegi_sunter_weights
    d = str(tmp_path)
    pq.write_table(pa.table({
        "p_brand": pa.array(["B1"] * 3),
        "p_type": pa.array(["T1", "T1", "T1"]),
        "p_size": pa.array([1, 1, 2], type=pa.int64())}),
        os.path.join(d, "part.parquet"))
    out = q_fellegi_sunter_weights(d).set_index("pattern")
    assert int(out.loc["both_agree", "n_pairs"]) == 1
    assert int(out.loc["type_only", "n_pairs"]) == 2
    assert int(out.loc["size_only", "n_pairs"]) == 0
    assert int(out.loc["neither", "n_pairs"]) == 0
    assert float(out.loc["both_agree", "weight"]) \
        > float(out.loc["type_only", "weight"])


def test_pps_systematic_proportional_hits(tmp_path):
    """One whale holding 60% of revenue among 5 customers must win
    a 60%-proportional share of the 20 skip points (12 hits); the
    sample covers exactly the containment intervals."""
    from prclz_ray.pipelines.queries import q_pps_systematic_customers
    d = str(tmp_path)
    ck = [1, 2, 3, 4, 5]
    rev = [10.0, 10.0, 60.0, 10.0, 10.0]
    pq.write_table(pa.table({
        "o_custkey": pa.array(ck, type=pa.int64()),
        "o_totalprice": pa.array(rev)}),
        os.path.join(d, "orders.parquet"))
    out = q_pps_systematic_customers(d).set_index("c_custkey")
    assert int(out.loc[3, "n_hits"]) == 12
    assert int(out["n_hits"].sum()) == 20


def test_chao1_matches_spectrum(tmp_path):
    """'a a a b b c': V=3 V1=1 V2=1 → Chao1 = 3.5 exactly; an
    all-hapax source uses the bias-corrected branch:
    V + V1(V1−1)/2 = 3 + 3 = 6."""
    from prclz_ray.pipelines.queries import q_chao1_richness_sources
    d = str(tmp_path)
    _docs_table(d, ["s1", "s2"], ["a a a b b c", "x y z"])
    out = q_chao1_richness_sources(d).set_index("source")
    assert float(out.loc["s1", "chao1"]) == 3.5
    assert float(out.loc["s2", "chao1"]) == 6.0


def test_mediation_full_mediation_fixture(tmp_path):
    """Y built EXACTLY as 10·M with M correlated with X: the direct
    path c′ clears to 0 and b to 10 — full mediation; the total
    effect equals a·b (+0) so indirect_ab == c_total."""
    from prclz_ray.pipelines.queries import q_mediation_sobel_customers
    d = str(tmp_path)
    # X (acctbal dollars) drives M (orders) noisily; Y = orders*10$
    xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    ms = [1, 3, 2, 4, 5, 4, 6, 7]
    pq.write_table(pa.table({
        "c_custkey": pa.array(list(range(1, 9)), type=pa.int64()),
        "c_acctbal": pa.array(xs)}),
        os.path.join(d, "customer.parquet"))
    ok, dates, prices = [], [], []
    for i, m in enumerate(ms):
        for _ in range(m):
            ok.append(i + 1)
            prices.append(10.0)
    pq.write_table(pa.table({
        "o_custkey": pa.array(ok, type=pa.int64()),
        "o_totalprice": pa.array(prices)}),
        os.path.join(d, "orders.parquet"))
    out = q_mediation_sobel_customers(d).iloc[0]
    assert abs(float(out["c_prime"])) < 1e-9
    assert abs(float(out["b_path"]) - 1000.0) < 1e-6  # cents per order
    assert abs(float(out["indirect_ab"])
               - float(out["c_total"])) < 1e-6
    assert float(out["sobel_z"]) > 2.0


def test_ridge_shrinks_toward_zero(tmp_path):
    """On exact y = 100·q data, OLS slope would be 100; ridge with
    λ = 1000 lands strictly between 0 and 100 (shrinkage), and the
    intercept compensates."""
    from prclz_ray.pipelines.queries import q_ridge_price_model
    d = str(tmp_path)
    q = [1.0, 2.0, 3.0, 4.0, 5.0]
    pq.write_table(pa.table({
        "l_quantity": pa.array(q),
        "l_discount": pa.array([0.0, 0.01, 0.02, 0.03, 0.04]),
        "l_extendedprice": pa.array([v * 1.0 for v in q])}),
        os.path.join(d, "lineitem.parquet"))
    out = q_ridge_price_model(d).iloc[0]
    assert 0.0 < float(out["beta_qty"]) < 100.0


def test_smd_balanced_vs_shifted(tmp_path):
    """Identical order-count distributions in both arms pin SMD = 0;
    shifting the treated arm up makes it strictly positive."""
    from prclz_ray.pipelines.queries import q_smd_balance_segments
    d = str(tmp_path / "bal")
    os.makedirs(d)
    custs, orders = [], []
    for pos in (1, 0):
        bal = 100.0 if pos else -100.0
        for cnt in (1, 2, 3):
            custs.append((0, "SEGA", bal)); orders.append(cnt)
    _epi_tables(d, custs, orders)
    out = q_smd_balance_segments(d)
    assert (out["smd"] == 0.0).all()

    d2 = str(tmp_path / "shift")
    os.makedirs(d2)
    custs, orders = [], []
    for cnt in (5, 6, 7):
        custs.append((0, "SEGA", 100.0)); orders.append(cnt)
    for cnt in (1, 2, 3):
        custs.append((0, "SEGA", -100.0)); orders.append(cnt)
    _epi_tables(d2, custs, orders)
    out2 = q_smd_balance_segments(d2)
    assert (out2["smd"] == 4.0).all()


def test_walsh_between_laspeyres_paasche(tmp_path):
    """Doubling both prices with shifted quantities: every price
    relative is 2 so Walsh = 2 exactly (all superlative indices
    agree on a uniform inflation)."""
    from prclz_ray.pipelines.queries import q_walsh_price_index
    d = str(tmp_path)
    y0 = np.datetime64("1994-06-01T00:00:00", "us")
    y1 = np.datetime64("1997-06-01T00:00:00", "us")
    rows = [
        (1, y0, 10.0, 10.0), (1, y1, 40.0, 20.0),   # p 1 -> 2
        (2, y0, 60.0, 20.0), (2, y1, 60.0, 10.0)]   # p 3 -> 6
    pq.write_table(pa.table({
        "l_partkey": pa.array([r[0] for r in rows], type=pa.int64()),
        "l_shipdate": pa.array([r[1] for r in rows]),
        "l_extendedprice": pa.array([r[2] for r in rows]),
        "l_quantity": pa.array([r[3] for r in rows])}),
        os.path.join(d, "lineitem.parquet"))
    out = q_walsh_price_index(d).iloc[0]
    assert int(out["n_parts"]) == 2
    assert abs(float(out["walsh"]) - 2.0) < 1e-6


def test_hill_numbers_ordering_and_uniform(tmp_path):
    """Uniform 4-word source: D0 = D1 = D2 = 4 exactly; a skewed
    source obeys the strict D0 > D1 > D2 ladder."""
    from prclz_ray.pipelines.queries import q_hill_numbers_sources
    d = str(tmp_path)
    _docs_table(d, ["u", "s"],
                ["a b c d", "a a a a a a b c d"])
    out = q_hill_numbers_sources(d).set_index("source")
    assert int(out.loc["u", "d0_richness"]) == 4
    assert abs(float(out.loc["u", "d1_exp_shannon"]) - 4.0) < 1e-5
    assert abs(float(out.loc["u", "d2_inv_simpson"]) - 4.0) < 1e-6
    s = out.loc["s"]
    assert int(s["d0_richness"]) == 4
    assert float(s["d1_exp_shannon"]) < 4.0
    assert float(s["d2_inv_simpson"]) < float(s["d1_exp_shannon"])


def test_burts_constraint_star_vs_clique(tmp_path):
    """In the 3-out synthetic graph the op runs end-to-end with the
    invariants: constraint positive, effective size ≤ degree, and a
    node whose neighbors are all pairwise unconnected has effective
    size == degree exactly."""
    from prclz_ray.pipelines.queries import q_burts_constraint_links
    d = str(tmp_path)
    _docs_table(d, ["x"] * 12, ["t"] * 12)
    out = q_burts_constraint_links(d)
    assert (out["burt_constraint"] > 0).all()
    assert (out["eff_size"] <= out["degree"] + 1e-9).all()
    iso = out[out["n_neighbor_edges"] == 0]
    if len(iso):
        assert np.allclose(iso["eff_size"], iso["degree"])


def test_holt_winters_pure_seasonal_signal(tmp_path):
    """A stationary weekly pattern: forecasts reproduce the pattern
    (h and h+7 forecasts nearly equal, trend ~ 0) and track the
    high/low days in the right order."""
    from prclz_ray.pipelines.queries import q_holt_winters_additive
    d = str(tmp_path)
    pattern = [100.0, 100.0, 100.0, 100.0, 100.0, 300.0, 50.0]
    _daily_orders(d, pattern * 8)
    out = q_holt_winters_additive(d).set_index("h")
    f = out["forecast"]
    # day-6-of-week forecast must exceed day-7-of-week forecast
    vals = f.to_numpy()
    assert vals.max() > vals.min() + 10000  # cents: pattern survives
    # position of max matches the 300-dollar weekday phase
    assert int(np.argmax(vals)) == int(np.argmax(
        np.array(pattern * 2)[len(pattern) * 8 % 7:][:7]))


def test_theta_on_pure_trend_recovers_line(tmp_path):
    """On an exact linear ramp the theta line equals the ramp itself,
    SES converges toward the recent level, and the h-step forecasts
    continue the line to within a tight band."""
    from prclz_ray.pipelines.queries import q_theta_method_forecast
    d = str(tmp_path)
    _daily_orders(d, [100.0 + 10.0 * i for i in range(60)])
    out = q_theta_method_forecast(d).set_index("h")
    # on a ramp SES of the theta line converges to x_n − slope, so
    # fc(1) = ½(x_{n+1}) + ½(x_n − slope) = x_n exactly, and each
    # further step adds b/2 — the theta method's documented damping
    assert abs(float(out.loc[1, "forecast"]) - 69000.0) < 60.0
    diffs = np.diff(out["forecast"].to_numpy())
    assert np.all(np.abs(diffs - 500.0) < 5.0)


def test_variance_ratio_iid_vs_trend(tmp_path):
    """Alternating increments (+,-,+,-) are strongly mean-reverting:
    VR(2) ≈ 0; a constant-increment ramp has zero 1-period variance…
    so use a noisy-trend fixture instead: momentum pushes VR(2)
    above 1."""
    from prclz_ray.pipelines.queries import q_variance_ratio_revenue
    d = str(tmp_path / "rev")
    os.makedirs(d)
    vals = [100.0 + (10.0 if i % 2 == 0 else -10.0) * 5
            for i in range(64)]
    _daily_orders(d, vals)
    out = q_variance_ratio_revenue(d).set_index("q")
    assert float(out.loc[2, "vr"]) < 0.2
    assert float(out.loc[2, "z_homo"]) < -3.0

    d2 = str(tmp_path / "mom")
    os.makedirs(d2)
    # long up-down swings: 16 days up then 16 down, repeated
    vals2 = []
    lv = 100.0
    for i in range(64):
        lv += 20.0 if (i // 16) % 2 == 0 else -20.0
        vals2.append(lv)
    _daily_orders(d2, vals2)
    out2 = q_variance_ratio_revenue(d2).set_index("q")
    assert float(out2.loc[8, "vr"]) > 1.5


def _ballot_tables(d, nation_seg_rev):
    """nation_seg_rev: list of (nation, segment, revenue_dollars) —
    one customer per (nation, segment) with one order."""
    custs, orders = [], []
    ck = 1
    for nk, seg, rv in nation_seg_rev:
        custs.append((ck, nk, seg))
        orders.append((ck, rv))
        ck += 1
    pq.write_table(pa.table({
        "c_custkey": pa.array([c[0] for c in custs],
                              type=pa.int64()),
        "c_nationkey": pa.array([c[1] for c in custs],
                                type=pa.int64()),
        "c_mktsegment": pa.array([c[2] for c in custs])}),
        os.path.join(d, "customer.parquet"))
    pq.write_table(pa.table({
        "o_custkey": pa.array([o[0] for o in orders],
                              type=pa.int64()),
        "o_totalprice": pa.array([o[1] for o in orders])}),
        os.path.join(d, "orders.parquet"))


def test_borda_condorcet_paradox(tmp_path):
    """Rock-paper-scissors ballots (A>B>C, B>C>A, C>A>B): every
    candidate wins exactly one pairwise duel, Borda ties at 3, and
    NO Condorcet winner exists — the paradox the op exists to
    expose."""
    from prclz_ray.pipelines.queries import q_borda_condorcet_segments
    d = str(tmp_path)
    _ballot_tables(d, [
        (0, "A", 300.0), (0, "B", 200.0), (0, "C", 100.0),
        (1, "B", 300.0), (1, "C", 200.0), (1, "A", 100.0),
        (2, "C", 300.0), (2, "A", 200.0), (2, "B", 100.0)])
    out = q_borda_condorcet_segments(d)
    assert (out["borda"] == 3).all()
    assert (out["pairwise_wins"] == 1).all()
    assert not out["condorcet_winner"].any()


def test_kemeny_unanimous_consensus(tmp_path):
    """Two identical ballots over five segments: the Kemeny-optimal
    order is the consensus with cost exactly 0."""
    from prclz_ray.pipelines.queries import q_kemeny_rank_segments
    d = str(tmp_path)
    rows = []
    for nk in (0, 1):
        for i, seg in enumerate(["S1", "S2", "S3", "S4", "S5"]):
            rows.append((nk, seg, 500.0 - 100.0 * i))
    _ballot_tables(d, rows)
    out = q_kemeny_rank_segments(d)
    assert out["segment"].tolist() == ["S1", "S2", "S3", "S4", "S5"]
    assert (out["kemeny_cost"] == 0).all()


def test_gale_shapley_contested_supplier(tmp_path):
    """Both nations' means sit nearest supplier 10 (bal 100); the
    supplier prefers the richer nation 1, so nation 0 settles for
    its second choice — deferred acceptance resolving a conflict
    exactly as the 1962 proof says.  And the outcome admits no
    blocking pair."""
    from prclz_ray.pipelines.queries import q_gale_shapley_matching
    d = str(tmp_path)
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2], type=pa.int64()),
        "c_nationkey": pa.array([0, 1], type=pa.int64()),
        "c_acctbal": pa.array([100.0, 110.0])}),
        os.path.join(d, "customer.parquet"))
    pq.write_table(pa.table({
        "o_custkey": pa.array([1, 2], type=pa.int64()),
        "o_totalprice": pa.array([100.0, 900.0])}),
        os.path.join(d, "orders.parquet"))
    pq.write_table(pa.table({
        "s_suppkey": pa.array([10, 20], type=pa.int64()),
        "s_acctbal": pa.array([100.0, 500.0])}),
        os.path.join(d, "supplier.parquet"))
    out = q_gale_shapley_matching(d).set_index("n_nationkey")
    assert int(out.loc[1, "s_suppkey"]) == 10   # richer nation wins
    assert int(out.loc[1, "pref_rank_nation"]) == 1
    assert int(out.loc[0, "s_suppkey"]) == 20
    assert int(out.loc[0, "pref_rank_nation"]) == 2


def test_win_ratio_hierarchy_hand_counted(tmp_path):
    """2 treated (frequent 12-order, casual 3) vs 2 control
    (frequent 12, casual 1): hand pairs — T1 beats C2, ties C1 on
    level then ties count; T2 loses to C1, beats C2 on count —
    wins 2, losses 1, ties 1 → WR = 2."""
    from prclz_ray.pipelines.queries import q_win_ratio_customers
    d = str(tmp_path)
    custs, orders = [], []
    for bal, cnt in ((100.0, 12), (100.0, 3),
                     (-100.0, 12), (-100.0, 1)):
        custs.append((0, "S", bal)); orders.append(cnt)
    _epi_tables(d, custs, orders)
    out = q_win_ratio_customers(d).iloc[0]
    assert int(out["wins"]) == 2
    assert int(out["losses"]) == 1
    assert int(out["ties"]) == 1
    assert float(out["win_ratio"]) == 2.0


def test_mrl_and_ttt_exponential_vs_uniform(tmp_path):
    """Uniform lifetimes 0..90 (churned and not, by construction):
    MRL decreases with t (wear-out side) and the scaled TTT curve
    sits above the diagonal at interior deciles — the two aging
    diagnostics agreeing on the same panel."""
    from prclz_ray.pipelines.queries import (
        q_mean_residual_life, q_ttt_transform_lifetimes)
    d = str(tmp_path)
    base = np.datetime64("1995-01-01T00:00:00", "us")
    rows = []
    ck = 1
    for life in range(0, 91, 10):
        rows.append((ck, base))
        rows.append((ck, base + np.timedelta64(
            life * 86_400_000_000, "us")))
        ck += 1
    pq.write_table(pa.table({
        "o_custkey": pa.array([r[0] for r in rows],
                              type=pa.int64()),
        "o_orderdate": pa.array([r[1] for r in rows])}),
        os.path.join(d, "orders.parquet"))
    mrl = q_mean_residual_life(d)
    v = mrl["mrl_days"].to_numpy()
    assert v[0] > v[-1]          # decreasing on uniform
    ttt = q_ttt_transform_lifetimes(d)
    phis = ttt.set_index("decile")["phi"]
    assert float(phis.loc[10]) == 1.0
    assert float(phis.loc[5]) > 0.5   # above the diagonal


def test_agreement_family_identical_and_shifted(tmp_path):
    """Texts without punctuation make the two token measures
    identical: CCC = 1, bias = 0 with zero-width limits, PB slope 1
    intercept 0.  Adding one trailing punctuation mark per doc
    shifts the regex count by exactly +1: CCC < 1, bias = −1, PB
    slope stays 1 with intercept +1 (a pure location offset, which
    is exactly what BA/CCC punish and Pearson ignores)."""
    from prclz_ray.pipelines.queries import (
        q_bland_altman_tokens, q_lin_ccc_tokens,
        q_passing_bablok_tokens)
    d = str(tmp_path / "same")
    os.makedirs(d)
    texts = [("w " * (i + 2)).strip() for i in range(6)]
    _docs_table(d, ["s"] * 6, texts)
    ccc = q_lin_ccc_tokens(d).iloc[0]
    assert float(ccc["ccc"]) == 1.0
    assert float(ccc["pearson_r"]) == 1.0
    ba = q_bland_altman_tokens(d).iloc[0]
    assert float(ba["bias"]) == 0.0
    assert float(ba["sd_diff"]) == 0.0
    pb = q_passing_bablok_tokens(d).iloc[0]
    assert float(pb["slope"]) == 1.0
    assert float(pb["intercept"]) == 0.0

    d2 = str(tmp_path / "shift")
    os.makedirs(d2)
    _docs_table(d2, ["s"] * 6, [t + " !" for t in texts])
    ccc2 = q_lin_ccc_tokens(d2).iloc[0]
    ba2 = q_bland_altman_tokens(d2).iloc[0]
    pb2 = q_passing_bablok_tokens(d2).iloc[0]
    # ws counts +1 ('!' is a token), regex counts +1 too... craft
    # instead with attached punctuation: 'w!' is ONE ws token but
    # TWO regex tokens
    d3 = str(tmp_path / "attached")
    os.makedirs(d3)
    _docs_table(d3, ["s"] * 6, [t + " w!" for t in texts])
    ccc3 = q_lin_ccc_tokens(d3).iloc[0]
    ba3 = q_bland_altman_tokens(d3).iloc[0]
    pb3 = q_passing_bablok_tokens(d3).iloc[0]
    assert float(ba3["bias"]) == -1.0
    assert float(ba3["sd_diff"]) == 0.0
    assert float(ccc3["pearson_r"]) == 1.0
    assert float(ccc3["ccc"]) < 1.0
    assert float(pb3["slope"]) == 1.0
    # intercept is in y-units: y = x + 1, so +1 (bias = x−y = −1)
    assert float(pb3["intercept"]) == 1.0


def test_readability_lix_hand_counts(tmp_path):
    """'simple words here. another sentence here!' → 6 words, 2
    sentences, long words = {'another', 'sentence'} (both ≥7
    chars): LIX = 3 + 100/3; RIX = 1 — hand-verified; the harder
    source scores higher LIX."""
    from prclz_ray.pipelines.queries import q_readability_lix_ari
    d = str(tmp_path)
    _docs_table(d, ["easy", "hard"],
                ["simple words here. another sentence here!",
                 "extraordinarily complicated terminological "
                 "constructions proliferate. incomprehensibility "
                 "increases dramatically!"])
    out = q_readability_lix_ari(d).set_index("source")
    e = out.loc["easy"]
    assert int(e["n_words"]) == 6
    assert int(e["n_sentences"]) == 2
    assert abs(float(e["lix"]) - (3.0 + 100.0 / 3.0)) < 1e-5
    assert abs(float(e["rix"]) - 1.0) < 1e-9
    assert float(out.loc["hard", "lix"]) > float(e["lix"])


def test_mm1k_loss_monotone_in_buffer(tmp_path):
    """Fixed load: a bigger buffer always loses less, and with
    ρ < 1 the loss vanishes as K grows; throughput approaches λ."""
    from prclz_ray.pipelines.queries import q_mm1k_loss_probability
    d = str(tmp_path)
    # 20 purchases over 190 s, each 5 s of work: rho = 10/19 < 1
    _ts_events(d, [10 * i for i in range(20)], [5.0] * 20)
    t = pq.read_table(os.path.join(d, "events.parquet"))
    t = t.set_column(t.schema.get_field_index("event_type"),
                     "event_type", pa.array(["purchase"] * 20))
    pq.write_table(t, os.path.join(d, "events.parquet"))
    out = q_mm1k_loss_probability(d).set_index("k_buffer")
    pl = out["p_loss"]
    assert float(pl.loc[5]) > float(pl.loc[10]) > float(pl.loc[20])
    assert float(pl.loc[20]) < 1e-4
    lam = 20.0 / 190.0
    assert abs(float(out.loc[20, "throughput_per_sec"]) - lam) \
        < 1e-3


def test_gravity_decay_runs_and_signs(tmp_path):
    """On the synthetic trajectory panel the calibration runs
    end-to-end; the normalized flow ratio is finite and the
    intercept negative (T ≤ O·D always)."""
    from prclz_ray.pipelines.queries import q_gravity_decay_fit
    d = str(tmp_path)
    base = np.datetime64("2024-01-01T00:00:00", "us")
    rows = []
    eid = 0
    for u in range(1, 7):
        for day in range(3):
            for hh in (1, 9):
                rows.append((eid, u, base + np.timedelta64(
                    (day * 24 + hh) * 3_600_000_000, "us")))
                eid += 1
    pq.write_table(pa.table({
        "event_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "user_id": pa.array([r[1] for r in rows], type=pa.int64()),
        "event_type": pa.array(["click"] * len(rows)),
        "ts": pa.array([r[2] for r in rows]),
        "value": pa.array([1.0] * len(rows))}),
        os.path.join(d, "events.parquet"))
    out = q_gravity_decay_fit(d).iloc[0]
    assert int(out["n_od_pairs"]) >= 3
    assert float(out["k_intercept"]) < 0
    assert np.isfinite(float(out["gamma_decay"]))


def test_zip_moments_poisson_vs_inflated(tmp_path):
    """Constant 2-a-day errors: variance < mean·(…) → the degenerate
    guard reports plain Poisson (π = 0, λ = mean).  Adding a run of
    zero days inflates: π̂ > 0 and λ̂ > the raw mean."""
    from prclz_ray.pipelines.queries import q_zip_moment_errors

    def write(d, counts):
        secs, types = [], []
        for day, k in enumerate(counts):
            for i in range(k):
                secs.append(day * 86400 + i)
                types.append("error")
        base = np.datetime64("2024-01-01T00:00:00", "us")
        n = len(secs)
        pq.write_table(pa.table({
            "event_id": pa.array(list(range(n)), type=pa.int64()),
            "user_id": pa.array([1] * n, type=pa.int64()),
            "event_type": pa.array(types),
            "ts": pa.array([base + np.timedelta64(
                s * 1_000_000, "us") for s in secs]),
            "value": pa.array([1.0] * n)}),
            os.path.join(d, "events.parquet"))

    d = str(tmp_path / "flat")
    os.makedirs(d)
    write(d, [2] * 10)
    out = q_zip_moment_errors(d).iloc[0]
    assert float(out["pi_zero_hat"]) == 0.0
    assert float(out["lambda_hat"]) == 2.0

    d2 = str(tmp_path / "zip")
    os.makedirs(d2)
    write(d2, [4, 0, 4, 0, 4, 0, 4, 0])  # half the days silent
    out2 = q_zip_moment_errors(d2).iloc[0]
    # calendar ends at the last ERROR day, so n=7 with 3 zero days:
    # pi-hat = 1 - m/lambda = 0.238...
    assert float(out2["pi_zero_hat"]) > 0.2
    assert float(out2["lambda_hat"]) > float(out2["mean_c"])


def test_rarefaction_uniform_saturates(tmp_path):
    """A 4-word source with 50 copies each (N=200): at m=100 nearly
    every word is expected (E[S] ≈ 4); rarefaction never exceeds
    the true vocabulary."""
    from prclz_ray.pipelines.queries import q_rarefaction_sources
    d = str(tmp_path)
    _docs_table(d, ["u"], [("a b c d " * 50).strip()])
    out = q_rarefaction_sources(d)
    r100 = out[out["m"] == 100].iloc[0]
    assert float(r100["expected_vocab"]) > 3.99
    assert float(r100["expected_vocab"]) <= 4.0


def test_ace_vs_chao1_rare_tail(tmp_path):
    """Hand spectrum 'a a a b b c': all words rare, F1=1 < N_rare=6:
    coverage = 5/6 and ACE follows the closed form — strictly above
    the observed vocabulary (unseen mass implies unseen words)."""
    from prclz_ray.pipelines.queries import q_ace_richness_sources
    d = str(tmp_path)
    _docs_table(d, ["s1"], ["a a a b b c"])
    out = q_ace_richness_sources(d).iloc[0]
    assert abs(float(out["coverage"]) - 5.0 / 6.0) < 1e-6
    assert float(out["ace"]) > 3.0


def test_seasonal_mk_sees_through_weekly_cycle(tmp_path):
    """A strong weekly cycle with NO within-weekday trend: plain MK
    pair counts are dominated by the cycle but seasonal MK compares
    only like weekdays — S = 0 exactly and z = 0."""
    from prclz_ray.pipelines.queries import q_seasonal_mann_kendall
    d = str(tmp_path / "cyc")
    os.makedirs(d)
    pattern = [100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0]
    _daily_orders(d, pattern * 6)
    out = q_seasonal_mann_kendall(d).iloc[0]
    assert int(out["s_stat"]) == 0
    assert float(out["z"]) == 0.0

    d2 = str(tmp_path / "trend")
    os.makedirs(d2)
    _daily_orders(d2, [p + 10.0 * w for w in range(6)
                       for p in pattern])
    out2 = q_seasonal_mann_kendall(d2).iloc[0]
    # rising within every weekday: S = 7 * C(6,2) = 105 exactly
    assert int(out2["s_stat"]) == 105
    assert float(out2["z"]) > 3.0


def test_pettitt_locates_level_shift(tmp_path):
    """30 low days then 30 high days: the Pettitt break lands at the
    boundary (index 29) with K = 30·30 = 900 exactly."""
    from prclz_ray.pipelines.queries import q_pettitt_changepoint
    d = str(tmp_path)
    _daily_orders(d, [100.0] * 30 + [500.0] * 30)
    out = q_pettitt_changepoint(d).iloc[0]
    assert int(out["k_stat"]) == 900
    assert int(out["break_day_idx"]) == 29
    assert float(out["p_approx"]) < 0.01


def test_buishand_constant_zero_range(tmp_path):
    """Constant revenue: every partial sum of deviations is exactly
    0, so the n-scaled range is 0; the same level shift that trips
    Pettitt produces a large rescaled range."""
    from prclz_ray.pipelines.queries import q_buishand_range_revenue
    d = str(tmp_path / "const")
    os.makedirs(d)
    _daily_orders(d, [100.0] * 20)
    out = q_buishand_range_revenue(d).iloc[0]
    assert int(out["range_nscaled"]) == 0

    d2 = str(tmp_path / "shift")
    os.makedirs(d2)
    _daily_orders(d2, [100.0] * 30 + [500.0] * 30)
    out2 = q_buishand_range_revenue(d2).iloc[0]
    assert float(out2["rescaled_range"]) > 3.0


def test_rank_size_exact_zipf(tmp_path):
    """Revenues 1200/600/400/300 = 1200/r: a perfect rank-size
    economy — q = 1 to quantization and the intercept is
    ln(120000 cents)."""
    import math
    from prclz_ray.pipelines.queries import q_rank_size_rule_nations
    d = str(tmp_path)
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3, 4], type=pa.int64()),
        "c_nationkey": pa.array([0, 1, 2, 3], type=pa.int64())}),
        os.path.join(d, "customer.parquet"))
    pq.write_table(pa.table({
        "o_custkey": pa.array([1, 2, 3, 4], type=pa.int64()),
        "o_totalprice": pa.array([1200.0, 600.0, 400.0, 300.0])}),
        os.path.join(d, "orders.parquet"))
    out = q_rank_size_rule_nations(d).iloc[0]
    assert abs(float(out["zipf_q"]) - 1.0) < 1e-5
    assert abs(float(out["ln_leader"]) - math.log(120000.0)) < 1e-5


def test_lq_and_krugman_specialized_economy(tmp_path):
    """Nation 0 sells only SEGA, nation 1 only SEGB (equal sizes):
    LQ = 2 exactly for both held cells, and Krugman K = 2 exactly
    for both nations (completely disjoint mixes — the index's
    maximum)."""
    from prclz_ray.pipelines.queries import (
        q_krugman_specialization, q_location_quotient_segments)
    d = str(tmp_path)
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2], type=pa.int64()),
        "c_nationkey": pa.array([0, 1], type=pa.int64()),
        "c_mktsegment": pa.array(["SEGA", "SEGB"])}),
        os.path.join(d, "customer.parquet"))
    pq.write_table(pa.table({
        "o_custkey": pa.array([1, 2], type=pa.int64()),
        "o_totalprice": pa.array([100.0, 100.0])}),
        os.path.join(d, "orders.parquet"))
    lq = q_location_quotient_segments(d)
    assert (lq["lq"] == 2.0).all()
    kk = q_krugman_specialization(d)
    assert (kk["krugman_k"] == 2.0).all()


def test_one_rule_perfect_feature_wins(tmp_path):
    """Segment perfectly separates frequent buyers while nation is
    uninformative: 1R picks segment with accuracy 1.0 and the
    nation rule sits at the majority-class floor."""
    from prclz_ray.pipelines.queries import q_one_rule_classifier
    d = str(tmp_path)
    custs, orders = [], []
    # 3 nations so nation does NOT inherit the parity split (the
    # first fixture used i%4, which preserves parity and made
    # nation a perfect separator too — caught by the test run)
    for i in range(12):
        seg = "SFREQ" if i % 2 == 0 else "SCAS"
        custs.append((i % 3, seg, 100.0))
        orders.append(12 if i % 2 == 0 else 1)
    _epi_tables(d, custs, orders)
    out = q_one_rule_classifier(d).set_index("feature")
    assert float(out.loc["segment", "accuracy"]) == 1.0
    assert bool(out.loc["segment", "is_best"])
    assert float(out.loc["nation", "accuracy"]) == 0.5


def test_decision_curve_perfect_scorer_dominates(tmp_path):
    """With the engine's real scorer panel at sf-sized fixtures the
    invariants hold: NB never exceeds prevalence, equals
    TP/n − FP/n·odds exactly, and the model's NB ≥ treat-all NB at
    high thresholds (treat-all collapses as odds grow)."""
    from prclz_ray.pipelines.queries import q_decision_curve_scores
    out = q_decision_curve_scores("/root/testdata/sf0.001")
    assert len(out) == 9
    hi = out[out["threshold"] >= 0.5]
    assert (hi["net_benefit"] >= hi["nb_treat_all"] - 1e-9).all()


def test_hosmer_lemeshow_runs_with_bins(tmp_path):
    """On the real sf0.001 panel the test runs with at least one
    usable bin and a finite nonnegative chi²."""
    from prclz_ray.pipelines.queries import q_hosmer_lemeshow_score
    out = q_hosmer_lemeshow_score("/root/testdata/sf0.001").iloc[0]
    assert int(out["n_bins_used"]) >= 1
    assert float(out["hl_chi2"]) >= 0.0


def test_multiple_testing_containment_and_pi0(tmp_path):
    """On the real sf0.001 panel the structural facts hold: BY
    rejections ⊆ BH rejections (the harmonic penalty), Storey's π̂₀
    ∈ [0, 1] with the exact above-λ count, and Simes' global p is a
    valid single number in [0, 1] at a real argmin rank."""
    from prclz_ray.pipelines.queries import (
        q_benjamini_yekutieli_nations, q_simes_global_nations,
        q_storey_pi0_nations)
    d = "/root/testdata/sf0.001"
    by = q_benjamini_yekutieli_nations(d)
    assert (~by["by_reject"] | by["bh_reject"]).all()  # BY ⊆ BH
    st = q_storey_pi0_nations(d).iloc[0]
    assert 0.0 <= float(st["pi0_hat"]) <= 1.0
    assert 0 <= int(st["n_p_above_half"]) <= int(st["m_tests"])
    si = q_simes_global_nations(d).iloc[0]
    assert 0.0 <= float(si["simes_p"]) <= 1.0
    assert 1 <= int(si["argmin_rank"]) <= int(si["m_tests"])


def test_effective_rank_isotropic_vs_collapsed(tmp_path):
    """Vectors along ONE direction give PR = 1 exactly; an isotropic
    pair of orthogonal directions doubles it."""
    from prclz_ray.pipelines.queries import q_effective_rank_embeddings
    from prclz_ray.pipelines.queries.common import _SEM_DIM
    d = str(tmp_path / "line")
    os.makedirs(d)
    base = np.zeros(_SEM_DIM)
    base[0] = 1.0
    _emb_table(d, [base * (i + 1) for i in range(6)])
    out = q_effective_rank_embeddings(d).iloc[0]
    assert abs(float(out["effective_rank"]) - 1.0) < 1e-6

    d2 = str(tmp_path / "plane")
    os.makedirs(d2)
    e0 = np.zeros(_SEM_DIM); e0[0] = 1.0
    e1 = np.zeros(_SEM_DIM); e1[1] = 1.0
    _emb_table(d2, [e0, -e0, e1, -e1])
    out2 = q_effective_rank_embeddings(d2).iloc[0]
    assert abs(float(out2["effective_rank"]) - 2.0) < 1e-6


def test_umass_coherence_co_vs_never(tmp_path):
    """Ten words always co-occurring in every doc score coherence
    Σln((D+1)/D) > 0; splitting them into two disjoint five-word
    cliques drives the cross-pair terms to ln(1/D) < 0 — strictly
    lower."""
    from prclz_ray.pipelines.queries import q_umass_coherence_top_words
    words = [f"w{i}" for i in range(10)]
    d = str(tmp_path / "co")
    os.makedirs(d)
    _docs_table(d, ["s"] * 4, [" ".join(words)] * 4)
    hi = q_umass_coherence_top_words(d).iloc[0]
    assert float(hi["umass_coherence"]) > 0

    d2 = str(tmp_path / "split")
    os.makedirs(d2)
    _docs_table(d2, ["s"] * 4,
                [" ".join(words[:5]), " ".join(words[5:])] * 2)
    lo = q_umass_coherence_top_words(d2).iloc[0]
    assert float(lo["umass_coherence"]) \
        < float(hi["umass_coherence"])


def test_juilland_even_vs_bursty(tmp_path):
    """A word spread evenly over 4 sources pins D = 1 exactly; the
    same total concentrated in one source drops D far below."""
    from prclz_ray.pipelines.queries import q_juilland_d_top_words
    d = str(tmp_path)
    texts = ["even even burst", "even even x",
             "even even y", "even even z"]
    texts[0] = "even even burst burst burst burst burst burst"
    _docs_table(d, ["a", "b", "c", "d"], texts)
    out = q_juilland_d_top_words(d).set_index("word")
    assert float(out.loc["even", "juilland_d"]) == 1.0
    assert float(out.loc["burst", "juilland_d"]) < 0.5


def test_meta_analysis_homogeneous_studies(tmp_path):
    """Nations drawn identical (same composition, same values):
    every effect equals the pool so Q = 0, τ² = 0, I² = 0, and
    fixed = random pooled exactly; every leave-one-out shift is 0."""
    from prclz_ray.pipelines.queries import (
        q_dersimonian_laird_nations, q_loo_meta_nations)
    d = str(tmp_path)
    nations, bals = [], []
    for nk in range(4):
        nations += [nk] * 4
        bals += [100.0, 200.0, 300.0, 400.0]
    _customer_table(d, nations, bals)
    out = q_dersimonian_laird_nations(d).iloc[0]
    assert float(out["q_het"]) == 0.0
    assert float(out["tau2"]) == 0.0
    assert float(out["i2"]) == 0.0
    assert float(out["pooled_fixed"]) == float(out["pooled_random"])
    loo = q_loo_meta_nations(d)
    assert (loo["shift"] == 0.0).all()


def test_dl_heterogeneous_widens(tmp_path):
    """One deviant nation: Q blows up, τ² > 0, and the random-effects
    pool sits strictly between fixed-effects and the deviant's own
    mean (the definitional DL behavior); Egger's slope regression
    still runs with finite outputs."""
    from prclz_ray.pipelines.queries import (
        q_dersimonian_laird_nations, q_eggers_test_nations)
    d = str(tmp_path)
    nations, bals = [], []
    for nk in range(3):
        nations += [nk] * 5
        bals += [100.0, 110.0, 120.0, 130.0, 140.0]
    # the deviant nation gets FEWER, NOISIER customers: with equal
    # within-variances FE and RE pool identically (weights
    # proportional — the first fixture proved it at exactly 320 vs
    # 320), so unequal sampling variance is what separates them
    nations += [3] * 3
    bals += [800.0, 900.0, 1000.0]
    _customer_table(d, nations, bals)
    out = q_dersimonian_laird_nations(d).iloc[0]
    assert float(out["tau2"]) > 0
    assert float(out["i2"]) > 0.9
    assert float(out["pooled_random"]) > float(out["pooled_fixed"])
    eg = q_eggers_test_nations(d).iloc[0]
    # 4 points can fit near-perfectly: t is finite or NULL by the
    # stated zero-SE guard
    assert np.isfinite(float(eg["intercept_bias"]))


def test_vif_orthogonal_vs_collinear(tmp_path):
    """Independent regressors pin VIF near 1 (no alarm); a near-copy
    pair drives it past the folk 10 with the alarm raised."""
    from prclz_ray.pipelines.queries import q_vif_price_regressors
    d = str(tmp_path / "orth")
    os.makedirs(d)
    q = [float(i % 5 + 1) for i in range(20)]
    disc = [0.01 * ((i * 7) % 10) for i in range(20)]
    pq.write_table(pa.table({
        "l_quantity": pa.array(q), "l_discount": pa.array(disc)}),
        os.path.join(d, "lineitem.parquet"))
    out = q_vif_price_regressors(d).iloc[0]
    assert float(out["vif"]) < 3.0
    assert not bool(out["collinear_alarm"])

    d2 = str(tmp_path / "coll")
    os.makedirs(d2)
    pq.write_table(pa.table({
        "l_quantity": pa.array([float(i) for i in range(1, 21)]),
        "l_discount": pa.array([0.01 * i for i in range(1, 21)])}),
        os.path.join(d2, "lineitem.parquet"))
    out2 = q_vif_price_regressors(d2).iloc[0]
    assert bool(out2["collinear_alarm"])


def test_reset_linear_vs_quadratic(tmp_path):
    """Exactly linear data passes RESET (F ≈ 0); a strong quadratic
    makes the added ŷ² term soak up variance — F large."""
    from prclz_ray.pipelines.queries import q_ramsey_reset_price

    def write(d, ys):
        pq.write_table(pa.table({
            "l_quantity": pa.array([float(i) for i in
                                    range(1, len(ys) + 1)]),
            "l_extendedprice": pa.array(ys)}),
            os.path.join(d, "lineitem.parquet"))

    d = str(tmp_path / "lin")
    os.makedirs(d)
    write(d, [100.0 + 10.0 * i for i in range(1, 31)])
    lin = q_ramsey_reset_price(d).iloc[0]
    assert float(lin["reset_f"]) < 1.0

    d2 = str(tmp_path / "quad")
    os.makedirs(d2)
    write(d2, [10.0 * i * i for i in range(1, 31)])
    quad = q_ramsey_reset_price(d2).iloc[0]
    assert float(quad["reset_f"]) > 100.0


def test_goldfeld_quandt_fanning_residuals(tmp_path):
    """Homoskedastic alternating residuals keep F near 1; residual
    spread growing with x drives F well above (the fanning pattern
    the test exists for)."""
    from prclz_ray.pipelines.queries import q_goldfeld_quandt_price

    def write(d, ys, xs):
        pq.write_table(pa.table({
            "l_quantity": pa.array(xs),
            "l_extendedprice": pa.array(ys)}),
            os.path.join(d, "lineitem.parquet"))

    xs = [float(i) for i in range(1, 41)]
    d = str(tmp_path / "homo")
    os.makedirs(d)
    write(d, [100.0 + 10.0 * x + (5.0 if i % 2 == 0 else -5.0)
              for i, x in enumerate(xs)], xs)
    homo = q_goldfeld_quandt_price(d).iloc[0]
    assert 0.2 < float(homo["gq_f"]) < 5.0

    d2 = str(tmp_path / "fan")
    os.makedirs(d2)
    write(d2, [100.0 + 10.0 * x
               + (x if i % 2 == 0 else -x) * 3.0
               for i, x in enumerate(xs)], xs)
    fan = q_goldfeld_quandt_price(d2).iloc[0]
    assert float(fan["gq_f"]) > 10.0


def test_dunn_separated_group_flags(tmp_path):
    """Three types: two interleaved, one far above — only the pairs
    involving the separated type go Bonferroni-significant."""
    from prclz_ray.pipelines.queries import q_dunns_posthoc_value
    d = str(tmp_path)
    types = ["a"] * 10 + ["b"] * 10 + ["hi"] * 10
    vals = [float(1 + (i % 10)) for i in range(10)] \
        + [float(1.5 + (i % 10)) for i in range(10)] \
        + [float(100 + i) for i in range(10)]
    _events_table(d, types, vals)
    out = q_dunns_posthoc_value(d)
    sep = out[(out["type_a"] == "hi") | (out["type_b"] == "hi")]
    assert sep["bonf_signif"].all()
    ab = out[(out["type_a"] == "a") & (out["type_b"] == "b")]
    assert not ab["bonf_signif"].any()


def test_cucconi_identical_zero_and_scale_shift(tmp_path):
    """Identical multisets tie every value, and under midranks the
    two squared-rank sums coincide: U = V exactly (not the untied
    U = −V mirror) and C stays tiny; a pure SCALE change — which
    Mann–Whitney alone misses — blows C up."""
    from prclz_ray.pipelines.queries import q_cucconi_test_value
    d = str(tmp_path / "same")
    os.makedirs(d)
    vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    _events_table(d, ["click"] * 6 + ["purchase"] * 6, vals + vals)
    out = q_cucconi_test_value(d).iloc[0]
    assert float(out["u_stat"]) == float(out["v_stat"])
    assert float(out["cucconi_c"]) < 1.0

    d2 = str(tmp_path / "scale")
    os.makedirs(d2)
    wide = [-20.0, -10.0, 3.0, 4.0, 17.0, 27.0]
    _events_table(d2, ["click"] * 6 + ["purchase"] * 6, vals + wide)
    out2 = q_cucconi_test_value(d2).iloc[0]
    assert float(out2["cucconi_c"]) > float(out["cucconi_c"])


def test_quade_weights_high_stakes_months(tmp_path):
    """Priorities ordered consistently in every month: Quade's F is
    large and finite (the A = B degenerate would be division by
    zero; consistent-but-noisy ranks keep A > B)."""
    from prclz_ray.pipelines.queries import q_quade_priority_months
    d = str(tmp_path)
    rows = []
    months = ["1995-01-01", "1995-02-01", "1995-03-01",
              "1995-04-01", "1995-05-01"]
    for mi, m in enumerate(months):
        for j, p in enumerate(_PRIOS):
            # mostly monotone with one swap in month 0
            v = 100.0 * (j + 1) * (mi + 1)
            if mi == 0 and j in (0, 1):
                v = 100.0 * (2 - j)
            rows.append((m, p, v))
    _orders_table(d, rows)
    out = q_quade_priority_months(d).iloc[0]
    assert int(out["n_months"]) == 5
    assert float(out["quade_f"]) > 1.0


def _survival_orders(d, lives):
    """lives: list of (custkey, first_day, last_day) day offsets."""
    base = np.datetime64("1995-01-01T00:00:00", "us")
    rows = []
    for ck, f, l in lives:
        rows.append((ck, base + np.timedelta64(f * 86_400_000_000,
                                               "us")))
        rows.append((ck, base + np.timedelta64(l * 86_400_000_000,
                                               "us")))
    pq.write_table(pa.table({
        "o_custkey": pa.array([r[0] for r in rows],
                              type=pa.int64()),
        "o_orderdate": pa.array([r[1] for r in rows])}),
        os.path.join(d, "orders.parquet"))


def test_weighted_logrank_family_identical_arms(tmp_path):
    """Arms with identical lifetime multisets: every O−E term is 0
    so Gehan's integer numerator, Tarone–Ware's and χ² are all
    exactly 0 — the three weightings agree on the null."""
    from prclz_ray.pipelines.queries import (
        q_gehan_breslow_retention, q_tarone_ware_retention)
    d = str(tmp_path)
    lives = []
    for i, life in enumerate([10, 20, 30, 40]):
        lives.append((2 * i, 0, life))        # arm 0
        lives.append((2 * i + 1, 0, life))    # arm 1
    _survival_orders(d, lives)
    ge = q_gehan_breslow_retention(d).iloc[0]
    assert int(ge["num"]) == 0
    assert float(ge["chi2"]) == 0.0
    tw = q_tarone_ware_retention(d).iloc[0]
    assert float(tw["num"]) == 0.0
    assert float(tw["chi2"]) == 0.0


def test_harrells_c_perfect_and_reversed(tmp_path):
    """Balances ordered WITH lifetimes give C = 1 exactly; reversed
    balances give C = 0 — and only event-anchored pairs count."""
    from prclz_ray.pipelines.queries import q_harrells_c_retention
    d = str(tmp_path / "good")
    os.makedirs(d)
    lives = [(1, 0, 10), (2, 0, 20), (3, 0, 30), (4, 0, 200)]
    _survival_orders(d, lives)
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3, 4], type=pa.int64()),
        "c_acctbal": pa.array([10.0, 20.0, 30.0, 40.0])}),
        os.path.join(d, "customer.parquet"))
    out = q_harrells_c_retention(d).iloc[0]
    # custs 1-3 churned (last orders >=90d before horizon 200)
    assert int(out["n_comparable"]) == 3 + 2 + 1
    assert float(out["c_index"]) == 1.0

    d2 = str(tmp_path / "bad")
    os.makedirs(d2)
    _survival_orders(d2, lives)
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3, 4], type=pa.int64()),
        "c_acctbal": pa.array([40.0, 30.0, 20.0, 10.0])}),
        os.path.join(d2, "customer.parquet"))
    out2 = q_harrells_c_retention(d2).iloc[0]
    assert float(out2["c_index"]) == 0.0


def test_box_cox_prefers_log_for_lognormal(tmp_path):
    """A geometric (log-normal-ish) series picks λ = 0 (the log),
    and an already-linear additive series picks λ = 1 — the 1964
    recommendation machinery working both ways."""
    from prclz_ray.pipelines.queries import q_box_cox_scan_revenue
    d = str(tmp_path / "geo")
    os.makedirs(d)
    _daily_orders(d, [100.0 * (1.35 ** (i % 12)) for i in range(48)])
    out = q_box_cox_scan_revenue(d)
    best = out[out["is_best"]]["lambda_grid"].iloc[0]
    assert best == 0.0

    d2 = str(tmp_path / "lin")
    os.makedirs(d2)
    _daily_orders(d2, [100.0 + 3.0 * (i % 12) for i in range(48)])
    out2 = q_box_cox_scan_revenue(d2)
    best2 = out2[out2["is_best"]]["lambda_grid"].iloc[0]
    assert best2 >= 0.5


def test_rosner_unmasks_outlier_pair(tmp_path):
    """Two extreme points close together mask each other for a
    single-outlier test; ESD's remove-and-retest pulls BOTH in the
    first two rounds."""
    from prclz_ray.pipelines.queries import q_rosner_esd_acctbal
    d = str(tmp_path)
    bals = [100.0 + i for i in range(20)] + [5000.0, 5001.0]
    _customer_table(d, [0] * len(bals), bals)
    out = q_rosner_esd_acctbal(d)
    assert set(out.head(2)["outlier_cents"]) == {500000, 500100}
    assert float(out.iloc[0]["r_stat"]) > 2.5
    assert float(out.iloc[1]["r_stat"]) > float(
        out.iloc[2]["r_stat"])


def test_lilliefors_uniform_vs_normalish(tmp_path):
    """A uniform grid sits near the fitted normal (D ≈ 0.06); a
    hard-skewed geometric sample departs far more — the ordering
    the CDF test exists to detect (a first draft compared a coarse
    binomial lattice, whose STEP gaps dominate — discreteness, not
    shape)."""
    from prclz_ray.pipelines.queries import q_lilliefors_acctbal
    d = str(tmp_path / "unif")
    os.makedirs(d)
    _customer_table(d, [0] * 100,
                    [float(i) for i in range(1, 101)])
    u = q_lilliefors_acctbal(d).iloc[0]
    assert float(u["lilliefors_d"]) < 0.1
    d2 = str(tmp_path / "skew")
    os.makedirs(d2)
    _customer_table(d2, [0] * 60,
                    [1.0 * (1.3 ** i) for i in range(60)])
    s = q_lilliefors_acctbal(d2).iloc[0]
    assert float(s["lilliefors_d"]) > float(u["lilliefors_d"])


def test_dependence_family_independence_and_nonlinear(tmp_path):
    """A V-shaped (perfectly nonlinear) relation: Pearson ≈ 0 but
    dCor decisively nonzero — the exact reason dCor exists; Hoeffding
    on perfectly concordant cells is positive, on an independent
    product grid ≈ 0; Blomqvist reads the quadrant signs."""
    from prclz_ray.pipelines.queries import (
        q_blomqvist_beta_cells, q_distance_correlation_daily,
        q_hoeffdings_d_cells)
    d = str(tmp_path / "vee")
    os.makedirs(d)
    # daily revenue V-shaped in time => the ORDER-count series is
    # flat 1/day: x = |i-24| pattern against y = const + tiny tilt
    # instead: make revenue V-shaped and counts linear so dCor > 0
    vals = [float(100 + 10 * abs(i - 24)) for i in range(49)]
    _daily_orders(d, vals)
    # one order per day => the count marginal is constant and its
    # dVar is 0: NULL by the stated degenerate guard
    dc = q_distance_correlation_daily(d).iloc[0]
    assert pd.isna(dc["dcor"])
    assert float(dc["dcov2_xy"]) == 0.0

    d2 = str(tmp_path / "conc")
    os.makedirs(d2)
    _li_disc_tax(d2, [(0.01 * i, 0.01 * i) for i in range(1, 8)
                      for _ in range(3)])
    hd = q_hoeffdings_d_cells(d2).iloc[0]
    assert float(hd["hoeffding_d"]) > 0.5
    bb = q_blomqvist_beta_cells(d2).iloc[0]
    assert float(bb["blomqvist_beta"]) == 1.0

    d3 = str(tmp_path / "indep")
    os.makedirs(d3)
    _li_disc_tax(d3, [(0.01 * i, 0.01 * j)
                      for i in range(1, 6) for j in range(1, 6)])
    hd3 = q_hoeffdings_d_cells(d3).iloc[0]
    # heavy-tie caveat: the strict/midrank mix is NOT centered at 0
    # on a tied product grid (0.26 here) — dependence must still
    # rank ABOVE it (0.55 concordant), which is the honest pin
    assert float(hd["hoeffding_d"]) > float(hd3["hoeffding_d"])
    bb3 = q_blomqvist_beta_cells(d3).iloc[0]
    assert float(bb3["blomqvist_beta"]) == 0.0


def test_gmd_two_point_and_normal_ratio(tmp_path):
    """Two customers at 0 and 100 dollars: GMD = the one gap,
    10000 cents exactly; on a near-uniform grid the GMD/sd ratio
    sits near the uniform value 2·(n+1)/(3n)·√3/2… just pin it
    between the extremes 1 and 1.2."""
    from prclz_ray.pipelines.queries import (
        q_gini_mean_difference_acctbal)
    d = str(tmp_path / "two")
    os.makedirs(d)
    _customer_table(d, [0, 0], [0.0, 100.0])
    out = q_gini_mean_difference_acctbal(d).iloc[0]
    assert float(out["gmd_cents"]) == 10000.0

    d2 = str(tmp_path / "grid")
    os.makedirs(d2)
    _customer_table(d2, [0] * 50, [float(i) for i in range(50)])
    out2 = q_gini_mean_difference_acctbal(d2).iloc[0]
    assert 1.0 < float(out2["gmd_over_sd"]) < 1.25


def test_cox_stuart_monotone_and_flat(tmp_path):
    """A strict ramp: every pair rises — n_plus = n/2, z > 3; a
    constant series ties every pair — z = 0 exactly."""
    from prclz_ray.pipelines.queries import q_cox_stuart_revenue
    d = str(tmp_path / "ramp")
    os.makedirs(d)
    _daily_orders(d, [100.0 + i for i in range(30)])
    out = q_cox_stuart_revenue(d).iloc[0]
    assert int(out["n_plus"]) == 15
    assert int(out["n_minus"]) == 0
    assert float(out["z"]) > 3.0

    d2 = str(tmp_path / "flat")
    os.makedirs(d2)
    _daily_orders(d2, [100.0] * 30)
    out2 = q_cox_stuart_revenue(d2).iloc[0]
    assert int(out2["n_ties"]) == 15
    assert float(out2["z"]) == 0.0


def test_longest_run_engineered_streak(tmp_path):
    """Alternating high/low except one 6-day high stretch: the
    longest above-median run is exactly 6 at the engineered start."""
    from prclz_ray.pipelines.queries import q_longest_run_above_median
    d = str(tmp_path)
    # lows must be the MAJORITY or the type-1 median lands on the
    # high mode and strict-above empties (the first fixture's
    # longest_run == 0 taught that)
    vals = []
    for i in range(40):
        if 20 <= i < 26:
            vals.append(500.0)
        else:
            vals.append(500.0 if i % 3 == 0 else 100.0)
    _daily_orders(d, vals)
    out = q_longest_run_above_median(d).iloc[0]
    assert int(out["median_cents"]) == 10000
    assert int(out["longest_run"]) == 6
    assert int(out["run_start_day_idx"]) == 20
