"""Round-4M operator batches (session 3 of round 4): spatial statistics
(LISA, Knox, Huff) and the families that follow.

Each op is driver-gate verified (rows+schema+hash vs DuckDB) at sf0.001
AND sf0.01 before its commit; these tests pin the semantic regimes the
hash sweep can't see — crafted cluster layouts, exact pair counts,
sign/quadrant assignments on engineered fixtures."""
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def _cell(u: int) -> int:
    return 5 * (((u * 104729) % 1000) // 200) \
        + ((u * 7919) % 1000) // 200


def test_lisa_island_quadrants(tmp_path):
    """All revenue concentrated on the center cell (nk 12): the island
    is High-surrounded-by-Low (HL, negative LISA), its rook neighbours
    are LH, and far corners are Low-near-Low (LL, POSITIVE lisa —
    spatially clustered lows count as positive local association)."""
    from prclz_ray.pipelines.queries import q_local_morans_i_cells
    d = str(tmp_path)
    pq.write_table(pa.table({
        "c_custkey": pa.array([1], type=pa.int64()),
        "c_nationkey": pa.array([12], type=pa.int64())}),
        os.path.join(d, "customer.parquet"))
    pq.write_table(pa.table({
        "o_custkey": pa.array([1], type=pa.int64()),
        "o_totalprice": pa.array([100.0])}),
        os.path.join(d, "orders.parquet"))
    out = q_local_morans_i_cells(d).set_index("nk")
    assert out.loc[12, "quadrant"] == "HL"
    assert float(out.loc[12, "lisa"]) < 0
    for nb in (7, 11, 13, 17):
        assert out.loc[nb, "quadrant"] == "LH"
    assert out.loc[0, "quadrant"] == "LL"
    assert float(out.loc[0, "lisa"]) > 0
    assert int(out.loc[12, "n_neighbors"]) == 4
    assert int(out.loc[0, "n_neighbors"]) == 2


def test_knox_exact_pair_counts(tmp_path):
    """Two users in different cells, each with 2 events ≤3 days apart,
    100 days between users: X = Ns = Nt = 2 (only the within-user
    pairs are close in space OR time), N = C(4,2) = 6, and the
    interaction z is positive (close-in-space pairs are also
    close-in-time)."""
    from prclz_ray.pipelines.queries import q_knox_spacetime_events
    ua, ub = 1, 2
    assert _cell(ua) != _cell(ub)
    d = str(tmp_path)
    base = np.datetime64("1995-01-01", "us")
    day = np.timedelta64(1, "D").astype("timedelta64[us]")
    pq.write_table(pa.table({
        "user_id": pa.array([ua, ua, ub, ub], type=pa.int64()),
        "ts": pa.array([base, base + day,
                        base + 100 * day, base + 101 * day])}),
        os.path.join(d, "events.parquet"))
    out = q_knox_spacetime_events(d).iloc[0]
    assert int(out["n_events"]) == 4
    assert int(out["x_knox"]) == 2
    assert int(out["ns_space"]) == 2
    assert int(out["nt_time"]) == 2
    assert int(out["n_pairs"]) == 6
    assert abs(float(out["e_knox"]) - 4.0 / 6.0) < 1e-6
    assert float(out["z_knox"]) > 0


def test_huff_nearest_store_wins(tmp_path):
    """Equal attractiveness (one supplier per mod-5 class): a single
    customer's highest Huff share goes to the store with the smallest
    squared distance, and shares sum to 1 within quantization."""
    from prclz_ray.pipelines.queries import q_huff_model_stores
    d = str(tmp_path)
    pq.write_table(pa.table({
        "s_suppkey": pa.array([0, 1, 2, 3, 4], type=pa.int64())}),
        os.path.join(d, "supplier.parquet"))
    ck = 7
    pq.write_table(pa.table({
        "c_custkey": pa.array([ck], type=pa.int64())}),
        os.path.join(d, "customer.parquet"))
    px = (ck * 7919) % 1000 + 0.5
    py = (ck * 104729) % 1000 + 0.5
    d2 = [(px - (100 + 200 * j)) ** 2 + (py - (100 + 200 * j)) ** 2
          for j in range(5)]
    out = q_huff_model_stores(d)
    assert list(out["attractiveness"]) == [1] * 5
    shares = out.set_index("store")["market_share"]
    assert abs(shares.sum() - 1.0) < 1e-6
    assert int(shares.idxmax()) == int(np.argmin(d2))
    # n=1 customer → expected captured customers equals the share
    assert np.allclose(out["expected_customers"], out["market_share"])


def _orders_tbl(d, prios, prices):
    pq.write_table(pa.table({
        "o_orderpriority": pa.array(prios),
        "o_totalprice": pa.array(prices)}),
        os.path.join(d, "orders.parquet"))


def test_jonckheere_monotone_extremes(tmp_path):
    """Values strictly increasing along the priority ladder → every
    cross-group pair agrees: 2U = 2·Σnᵢnⱼ and z > 0; reversed →
    2U = 0 and z < 0."""
    from prclz_ray.pipelines.queries import q_jonckheere_terpstra_priority
    names = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
             "5-LOW"]
    d = str(tmp_path / "up")
    os.makedirs(d)
    _orders_tbl(d, [n for n in names for _ in range(3)],
                [float(g + 1) for g in range(5) for _ in range(3)])
    up = q_jonckheere_terpstra_priority(d).iloc[0]
    assert int(up["u_doubled"]) == 2 * int(up["e_doubled"])
    assert float(up["z_jt"]) > 0
    d2 = str(tmp_path / "down")
    os.makedirs(d2)
    _orders_tbl(d2, [n for n in names for _ in range(3)],
                [float(5 - g) for g in range(5) for _ in range(3)])
    down = q_jonckheere_terpstra_priority(d2).iloc[0]
    assert int(down["u_doubled"]) == 0
    assert float(down["z_jt"]) < 0


def test_cochran_armitage_flat_is_zero(tmp_path):
    """A perfectly flat error rate (1 error in 4 events every hour)
    gives A = N·Σtr − R·Σtn EXACTLY zero; a ramp (errors only in the
    late hours) gives z > 0."""
    from prclz_ray.pipelines.queries import q_cochran_armitage_errors
    base = np.datetime64("1995-01-01", "us")
    hour = np.timedelta64(3600, "s").astype("timedelta64[us]")
    ts, et = [], []
    for h in range(24):
        for i in range(4):
            ts.append(base + h * hour)
            et.append("error" if i == 0 else "click")
    d = str(tmp_path / "flat")
    os.makedirs(d)
    pq.write_table(pa.table({"ts": pa.array(ts),
                             "event_type": pa.array(et)}),
                   os.path.join(d, "events.parquet"))
    flat = q_cochran_armitage_errors(d).iloc[0]
    assert int(flat["a_num"]) == 0
    ts2, et2 = [], []
    for h in range(24):
        for i in range(4):
            ts2.append(base + h * hour)
            et2.append("error" if (h >= 12 and i == 0) else "click")
    d2 = str(tmp_path / "ramp")
    os.makedirs(d2)
    pq.write_table(pa.table({"ts": pa.array(ts2),
                             "event_type": pa.array(et2)}),
                   os.path.join(d2, "events.parquet"))
    ramp = q_cochran_armitage_errors(d2).iloc[0]
    assert int(ramp["a_num"]) > 0
    assert float(ramp["z_trend"]) > 0


def test_cliffs_delta_extremes(tmp_path):
    """Disjoint supports (every purchase above every click) → δ = 1,
    'large'; identical distributions → δ = 0, 'negligible' with all
    pairs tied."""
    from prclz_ray.pipelines.queries import q_cliffs_delta_value
    d = str(tmp_path / "disjoint")
    os.makedirs(d)
    pq.write_table(pa.table({
        "event_type": pa.array(["purchase"] * 4 + ["click"] * 5),
        "value": pa.array([10.0] * 4 + [5.0] * 5)}),
        os.path.join(d, "events.parquet"))
    out = q_cliffs_delta_value(d).iloc[0]
    assert int(out["n_gt"]) == 20 and int(out["n_lt"]) == 0
    assert float(out["delta"]) == 1.0
    assert out["magnitude"] == "large"
    d2 = str(tmp_path / "same")
    os.makedirs(d2)
    pq.write_table(pa.table({
        "event_type": pa.array(["purchase"] * 3 + ["click"] * 3),
        "value": pa.array([7.0] * 6)}),
        os.path.join(d2, "events.parquet"))
    same = q_cliffs_delta_value(d2).iloc[0]
    assert int(same["n_tie"]) == 9
    assert float(same["delta"]) == 0.0
    assert same["magnitude"] == "negligible"


def _docs_tbl(d, texts, langs):
    pq.write_table(pa.table({
        "doc_id": pa.array(list(range(len(texts))), type=pa.int64()),
        "text": pa.array(texts), "lang": pa.array(langs)}),
        os.path.join(d, "documents.parquet"))


def test_interrater_perfect_agreement(tmp_path):
    """Long unambiguous docs (classifier right, weak rater copies it):
    all three raters agree on every item → Fleiss κ = 1 and
    Krippendorff α = 1 exactly, and Cochran's Q picks up that the
    always-'en' majority judge differs (Q = 4 on the crafted 2+2
    panel: G = (4,4,2), ΣL² = 26)."""
    from prclz_ray.pipelines.queries import (
        q_cochran_q_langid, q_fleiss_kappa_langid,
        q_krippendorff_alpha_langid)
    d = str(tmp_path)
    en = ("that and for it is of " * 12).strip()
    de = ("der das den mit nicht ist " * 10).strip()
    assert len(en) >= 200 and len(de) >= 200
    _docs_tbl(d, [en, en, de, de], ["en", "en", "de", "de"])
    fk = q_fleiss_kappa_langid(d).iloc[0]
    assert float(fk["po"]) == 1.0
    assert float(fk["kappa"]) == 1.0
    ka = q_krippendorff_alpha_langid(d).iloc[0]
    assert float(ka["d_obs"]) == 0.0
    assert float(ka["alpha"]) == 1.0
    cq = q_cochran_q_langid(d).iloc[0]
    assert (int(cq["g_langid"]), int(cq["g_weak"]),
            int(cq["g_majority"])) == (4, 4, 2)
    assert float(cq["q_cochran"]) == 4.0


def test_interrater_weak_rater_penalty(tmp_path):
    """SHORT non-English docs flip the weak rater to 'en': agreement
    drops below perfect and α < κ-fixture values; the weak judge's
    correct count falls behind the classifier's."""
    from prclz_ray.pipelines.queries import (
        q_cochran_q_langid, q_fleiss_kappa_langid)
    d = str(tmp_path)
    de_short = "der das den mit nicht ist"
    en = ("that and for it is of " * 12).strip()
    _docs_tbl(d, [en, de_short, de_short, de_short],
              ["en", "de", "de", "de"])
    fk = q_fleiss_kappa_langid(d).iloc[0]
    assert float(fk["po"]) < 1.0
    cq = q_cochran_q_langid(d).iloc[0]
    assert int(cq["g_weak"]) < int(cq["g_langid"])


def _orders_days(d, prices):
    base = np.datetime64("1995-01-01", "us")
    day = np.timedelta64(1, "D").astype("timedelta64[us]")
    pq.write_table(pa.table({
        "o_orderdate": pa.array([base + i * day
                                 for i in range(len(prices))]),
        "o_totalprice": pa.array([float(p) for p in prices])}),
        os.path.join(d, "orders.parquet"))


def test_permutation_entropy_regimes(tmp_path):
    """A strict ramp has ONE ordinal pattern (H = 0 exactly); a 2-cycle
    alternation has two equiprobable patterns (H = ln 2, norm
    ln2/ln6) — dynamics the value histogram can't distinguish."""
    from prclz_ray.pipelines.queries import q_permutation_entropy_revenue
    d = str(tmp_path / "ramp")
    os.makedirs(d)
    _orders_days(d, range(10, 30))
    ramp = q_permutation_entropy_revenue(d).iloc[0]
    assert int(ramp["c012"]) == 18 and float(ramp["h_nat"]) == 0.0
    d2 = str(tmp_path / "alt")
    os.makedirs(d2)
    _orders_days(d2, [10, 30] * 10)
    alt = q_permutation_entropy_revenue(d2).iloc[0]
    assert int(alt["c021"]) == 9 and int(alt["c102"]) == 9
    assert abs(float(alt["h_norm"]) - np.log(2) / np.log(6)) < 1e-5


def test_turning_points_extremes(tmp_path):
    """Monotone ramp → zero turning points (z < 0, trending);
    alternation → every interior day turns (z > 0)."""
    from prclz_ray.pipelines.queries import q_turning_points_revenue
    d = str(tmp_path / "ramp")
    os.makedirs(d)
    _orders_days(d, range(10, 40))
    ramp = q_turning_points_revenue(d).iloc[0]
    assert int(ramp["n_turning"]) == 0 and float(ramp["z_turning"]) < 0
    d2 = str(tmp_path / "alt")
    os.makedirs(d2)
    _orders_days(d2, [10, 30] * 15)
    alt = q_turning_points_revenue(d2).iloc[0]
    assert int(alt["n_turning"]) == 28
    assert float(alt["z_turning"]) > 0


def test_foster_stuart_ramp_records(tmp_path):
    """A strict up-ramp makes every post-first day an upper record and
    none a lower record: D = n−1 and z > 0; the mirrored-integer
    harmonic variance is shared with the twin."""
    from prclz_ray.pipelines.queries import q_foster_stuart_records
    d = str(tmp_path)
    _orders_days(d, range(10, 35))
    out = q_foster_stuart_records(d).iloc[0]
    assert int(out["n_up_records"]) == 24
    assert int(out["n_down_records"]) == 0
    assert int(out["d_stat"]) == 24
    assert float(out["z_records"]) > 0


def test_iv_equals_ols_when_instrument_is_x(tmp_path):
    """On a noiseless y = 3·x line ANY instrument correlated with x
    recovers the same slope: cov(z,y) = 300·cov(z,x), so β_IV = 300 =
    β_OLS exactly (z here is x censored at 5 — correlated but not
    collinear, keeping the first-stage F finite)."""
    from prclz_ray.pipelines.queries import q_iv_2sls_quantity
    d = str(tmp_path)
    q = list(range(1, 11))
    pq.write_table(pa.table({
        "l_quantity": pa.array([float(v) for v in q]),
        "l_extendedprice": pa.array([3.0 * v for v in q]),
        "l_discount": pa.array([min(v, 5) / 100.0 for v in q])}),
        os.path.join(d, "lineitem.parquet"))
    out = q_iv_2sls_quantity(d).iloc[0]
    assert float(out["beta_iv"]) == 300.0
    assert float(out["beta_ols"]) == 300.0
    assert float(out["first_stage_f"]) > 10


def test_rdd_step_function_jump(tmp_path):
    """A pure step in discount at qty 25 (5 bp below, 10 bp at/above,
    flat within each side) recovers fits of exactly 5 and 10 and
    τ = 5."""
    from prclz_ray.pipelines.queries import q_rdd_quantity_cutoff
    d = str(tmp_path)
    qty = list(range(15, 35))
    pq.write_table(pa.table({
        "l_quantity": pa.array([float(v) for v in qty]),
        "l_discount": pa.array([0.05 if v < 25 else 0.10
                                for v in qty])}),
        os.path.join(d, "lineitem.parquet"))
    out = q_rdd_quantity_cutoff(d).iloc[0]
    assert int(out["n_left"]) == 10 and int(out["n_right"]) == 10
    assert float(out["fit_left"]) == 5.0
    assert float(out["fit_right"]) == 10.0
    assert float(out["tau"]) == 5.0


def test_oaxaca_pure_composition_gap(tmp_path):
    """Both segments share the exact line y = 1000·x cents; BUILDING
    customers simply order at higher priorities.  The entire gap is
    composition: explained = gap, unexplained = 0."""
    from prclz_ray.pipelines.queries import q_oaxaca_value_by_segment
    d = str(tmp_path)
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3, 4], type=pa.int64()),
        "c_mktsegment": pa.array(["BUILDING", "BUILDING",
                                  "AUTOMOBILE", "AUTOMOBILE"])}),
        os.path.join(d, "customer.parquet"))
    pq.write_table(pa.table({
        "o_custkey": pa.array([1, 2, 3, 4], type=pa.int64()),
        "o_orderpriority": pa.array(["4-NOT SPECIFIED", "5-LOW",
                                     "1-URGENT", "2-HIGH"]),
        "o_totalprice": pa.array([40.0, 50.0, 10.0, 20.0])}),
        os.path.join(d, "orders.parquet"))
    out = q_oaxaca_value_by_segment(d).iloc[0]
    assert float(out["gap_cents"]) == 3000.0
    assert float(out["explained"]) == 3000.0
    assert float(out["unexplained"]) == 0.0


def test_eoq_closed_form(tmp_path):
    """One brand, two 10.00 parts, demand 50: EOQ = √(2·50·10000·10·2
    / 2000) = √10000 = 100 exactly."""
    from prclz_ray.pipelines.queries import q_eoq_parts_by_brand
    d = str(tmp_path)
    pq.write_table(pa.table({
        "p_partkey": pa.array([1, 2], type=pa.int64()),
        "p_brand": pa.array(["Brand#11", "Brand#11"]),
        "p_retailprice": pa.array([10.0, 10.0])}),
        os.path.join(d, "part.parquet"))
    pq.write_table(pa.table({
        "l_partkey": pa.array([1, 2], type=pa.int64()),
        "l_quantity": pa.array([30.0, 20.0])}),
        os.path.join(d, "lineitem.parquet"))
    out = q_eoq_parts_by_brand(d).iloc[0]
    assert int(out["annual_demand"]) == 50
    assert float(out["eoq_units"]) == 100.0


def test_newsvendor_exact_order_stat(tmp_path):
    """Daily demands 1..8 → k = ⌈0.75·8⌉ = 6 and the stock level is
    the 6th smallest daily total: exactly 6 units."""
    from prclz_ray.pipelines.queries import q_newsvendor_daily_demand
    d = str(tmp_path)
    base = np.datetime64("1995-01-01", "us")
    day = np.timedelta64(1, "D").astype("timedelta64[us]")
    pq.write_table(pa.table({
        "l_shipdate": pa.array([base + i * day for i in range(8)]),
        "l_quantity": pa.array([float(i + 1) for i in range(8)])}),
        os.path.join(d, "lineitem.parquet"))
    out = q_newsvendor_daily_demand(d).iloc[0]
    assert int(out["n_days"]) == 8
    assert int(out["k_rank"]) == 6
    assert int(out["q_star"]) == 6


def test_chain_ladder_projects_censored_origin(tmp_path):
    """Five monthly origins, diagonal cut at max−3 keeps Jan (sees lag
    0+1, cum 10000→20000) and Feb (lag 0 only).  f₀ = 2 from Jan's
    development; Feb's ultimate doubles its latest (IBNR = latest),
    Jan is developed flat (f₁..₃ default to 1, IBNR = 0)."""
    from prclz_ray.pipelines.queries import q_chain_ladder_orders
    d = str(tmp_path)
    odates, okeys = [], []
    for k, mo in enumerate(["01", "02", "03", "04", "05"]):
        odates.append(np.datetime64(f"1995-{mo}-10", "us"))
        okeys.append(k + 1)
    pq.write_table(pa.table({
        "o_orderkey": pa.array(okeys, type=pa.int64()),
        "o_orderdate": pa.array(odates)}),
        os.path.join(d, "orders.parquet"))
    lk, sd, ep, dc = [], [], [], []
    for k, mo in enumerate(["01", "02", "03", "04", "05"]):
        for lag in (0, 1):
            ship_m = int(mo) + lag
            lk.append(k + 1)
            sd.append(np.datetime64(f"1995-{ship_m:02d}-20", "us"))
            ep.append(1.0)
            dc.append(0.0)
    pq.write_table(pa.table({
        "l_orderkey": pa.array(lk, type=pa.int64()),
        "l_shipdate": pa.array(sd),
        "l_extendedprice": pa.array(ep),
        "l_discount": pa.array(dc)}),
        os.path.join(d, "lineitem.parquet"))
    out = q_chain_ladder_orders(d).set_index("origin_month")
    assert len(out) == 2
    jan, feb = sorted(out.index)
    assert int(out.loc[jan, "latest_e4"]) == 20000
    assert float(out.loc[jan, "ibnr_e4"]) == 0.0
    assert int(out.loc[feb, "latest_e4"]) == 10000
    assert float(out.loc[feb, "ultimate_e4"]) == 20000.0
    assert float(out.loc[feb, "ibnr_e4"]) == 10000.0


def test_jaro_winkler_textbook_pairs(tmp_path):
    """The textbook pairs land exactly: MARTHA/MARHTA → 0.961111,
    DWAYNE/DUANE → 0.84 (half-split pairing 0↔2, 1↔3)."""
    from prclz_ray.pipelines.queries import q_jaro_winkler_part_pairs
    d = str(tmp_path)
    pq.write_table(pa.table({
        "p_partkey": pa.array([0, 1, 2, 3], type=pa.int64()),
        "p_name": pa.array(["MARTHA", "DWAYNE", "MARHTA", "DUANE"])}),
        os.path.join(d, "part.parquet"))
    out = q_jaro_winkler_part_pairs(d).set_index("a")
    assert float(out.loc[0, "jw_sim"]) == 0.961111
    assert float(out.loc[1, "jw_sim"]) == 0.84


def test_mattr_regimes(tmp_path):
    """All-same 60-token doc → every window has 1 type (MATTR = 0.02);
    all-distinct 60-token doc → MATTR = 1; a 3-token short doc uses a
    single full-width window (2 types / 3 tokens)."""
    from prclz_ray.pipelines.queries import q_mattr_lexical_diversity
    d = str(tmp_path)
    same = " ".join(["tok"] * 60)
    dist = " ".join(f"w{i}" for i in range(60))
    short = "a b a"
    _docs_tbl(d, [same, dist, short], ["en", "en", "en"])
    out = q_mattr_lexical_diversity(d).set_index("doc_id")
    assert float(out.loc[0, "mattr"]) == 0.02
    assert int(out.loc[0, "n_windows"]) == 11
    assert float(out.loc[1, "mattr"]) == 1.0
    assert int(out.loc[2, "n_tokens"]) == 3
    assert float(out.loc[2, "mattr"]) == 0.666667


def test_lru_stack_distance_exact(tmp_path):
    """Sequence A B A C A: both re-references sit at stack distance 1 —
    misses in a size-1 cache, hits at 2 and 4; first touches are
    compulsory misses everywhere."""
    from prclz_ray.pipelines.queries import q_lru_stack_distance
    d = str(tmp_path)
    base = np.datetime64("1995-01-01T00:00:00", "us")
    sec = np.timedelta64(1, "s").astype("timedelta64[us]")
    types = ["A", "B", "A", "C", "A"]
    pq.write_table(pa.table({
        "event_id": pa.array(list(range(5)), type=pa.int64()),
        "ts": pa.array([base + i * sec for i in range(5)]),
        "user_id": pa.array([1] * 5, type=pa.int64()),
        "event_type": pa.array(types)}),
        os.path.join(d, "events.parquet"))
    out = q_lru_stack_distance(d).set_index("capacity")
    assert int(out.loc[1, "n_hits"]) == 0
    assert int(out.loc[2, "n_hits"]) == 2
    assert int(out.loc[4, "n_hits"]) == 2
    assert int(out.loc[2, "n_accesses"]) == 5
    assert float(out.loc[2, "hit_rate"]) == 0.4


def _toy_docs(d, n):
    pq.write_table(pa.table({
        "doc_id": pa.array(list(range(n)), type=pa.int64()),
        "text": pa.array(["x"] * n),
        "lang": pa.array(["en"] * n)}),
        os.path.join(d, "documents.parquet"))


def _toy_adj(n):
    adj = [set() for _ in range(n)]
    for s in range(n):
        for k in (1, 2, 3):
            t = (s * 7919 + k * 104729) % n
            if t != s:
                adj[s].add(t)
                adj[t].add(s)
    return adj


def test_graph_diameter_independent_bfs(tmp_path):
    """Diameter/radius/center on a 40-node instance match a from-
    scratch BFS reconstruction (different code path, no CSR)."""
    from collections import deque
    from prclz_ray.pipelines.queries import q_graph_diameter_links
    d = str(tmp_path)
    n = 40
    _toy_docs(d, n)
    adj = _toy_adj(n)
    eccs = []
    for s in range(n):
        dist = {s: 0}
        q = deque([s])
        while q:
            v = q.popleft()
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    q.append(w)
        eccs.append(max(dist.values()))
    out = q_graph_diameter_links(d).iloc[0]
    assert int(out["diameter"]) == max(eccs)
    assert int(out["radius"]) == min(eccs)
    assert int(out["n_center"]) == sum(e == min(eccs) for e in eccs)


def test_closeness_independent_reconstruction(tmp_path):
    """Wasserman–Faust closeness on the 40-node instance equals the
    brute-force (r−1)²/((n−1)·Σd) for every node."""
    from collections import deque
    from prclz_ray.pipelines.queries import q_closeness_centrality_links
    from prclz_ray.pipelines.queries.corpus_stats import _APSP_MEMO
    _APSP_MEMO.clear()
    d = str(tmp_path)
    n = 40
    _toy_docs(d, n)
    adj = _toy_adj(n)
    out = q_closeness_centrality_links(d).set_index("node")
    for s in range(n):
        dist = {s: 0}
        q = deque([s])
        while q:
            v = q.popleft()
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    q.append(w)
        r = len(dist)
        sd = sum(dist.values())
        want = ((r - 1) ** 2) / ((n - 1) * sd) if sd else 0.0
        assert abs(float(out.loc[s, "closeness"]) - want) < 1e-6
        assert int(out.loc[s, "sum_dist"]) == sd


def test_resource_allocation_independent(tmp_path):
    """Top RA pair on the 40-node instance matches a brute-force
    Σ⌊1e9/deg⌋ over common neighbors of non-edges, including the
    integer tie-break ordering."""
    from prclz_ray.pipelines.queries import q_resource_allocation_links
    from prclz_ray.pipelines.queries.corpus_stats import _APSP_MEMO
    _APSP_MEMO.clear()
    d = str(tmp_path)
    n = 40
    _toy_docs(d, n)
    adj = _toy_adj(n)
    deg = [len(a) for a in adj]
    scores = {}
    for u in range(n):
        for v in range(u + 1, n):
            if v in adj[u]:
                continue
            cn = adj[u] & adj[v]
            if cn:
                scores[(u, v)] = sum(10 ** 9 // deg[w] for w in cn)
    want = sorted(scores.items(),
                  key=lambda kv: (-kv[1], kv[0]))[:25]
    out = q_resource_allocation_links(d)
    got = list(zip(zip(out["a"], out["b"]), out["ra9"]))
    assert [(tuple(map(int, k)), int(v)) for k, v in got] == \
        [((a, b), s) for (a, b), s in want]


def _seat_fixture(d, cents):
    pq.write_table(pa.table({
        "c_custkey": pa.array(list(range(1, len(cents) + 1)),
                              type=pa.int64()),
        "c_nationkey": pa.array(list(range(len(cents))),
                                type=pa.int64())}),
        os.path.join(d, "customer.parquet"))
    pq.write_table(pa.table({
        "o_custkey": pa.array(list(range(1, len(cents) + 1)),
                              type=pa.int64()),
        "o_totalprice": pa.array([c / 100.0 for c in cents])}),
        os.path.join(d, "orders.parquet"))


def test_sainte_lague_and_hh_equal_split(tmp_path):
    """Three equal parties: both divisor methods split 100 as
    34/33/33 with the extra seat falling to the lowest nation key by
    the deterministic tie-break."""
    from prclz_ray.pipelines.queries import (
        q_huntington_hill_apportionment, q_sainte_lague_apportionment)
    d = str(tmp_path)
    _seat_fixture(d, [500, 500, 500])
    sl = q_sainte_lague_apportionment(d)
    assert list(sl["seats"]) == [34, 33, 33]
    hh = q_huntington_hill_apportionment(d)
    assert list(hh["seats"]) == [34, 33, 33]
    assert int(sl["seats"].sum()) == 100


def test_hamilton_alabama_paradox_instance(tmp_path):
    """Revenues (3, 457, 273) are a genuine Alabama-paradox instance:
    the house growing 100→101 takes nation 0 from 1 seat to 0 — pure
    integer arithmetic, not rounding."""
    from prclz_ray.pipelines.queries import q_hamilton_alabama_paradox
    d = str(tmp_path)
    _seat_fixture(d, [3, 457, 273])
    out = q_hamilton_alabama_paradox(d).set_index("n_nationkey")
    assert list(out["seats_100"]) == [1, 62, 37]
    assert list(out["seats_101"]) == [0, 63, 38]
    assert list(out["alabama_paradox"]) == [True, False, False]


def test_western_electric_rule4_run(tmp_path):
    """A long alternating base keeps runs short; appending 8
    consecutive high days triggers rule 4 on the 8th day of the run
    (and the flagged day carries rule4=True)."""
    from prclz_ray.pipelines.queries import q_western_electric_rules
    d = str(tmp_path)
    vals = [100, 102] * 20 + [103] * 8
    _orders_days(d, vals)
    out = q_western_electric_rules(d)
    r4 = out[out["rule4"]]
    assert len(r4) >= 1
    # the trailing 102 (index 39, above the run-lifted mean 101.33)
    # joins the high run, so 8-in-a-row completes at index 46
    base_day = int(np.datetime64("1995-01-01").astype(int))
    assert int(r4["day"].iloc[0]) - base_day == 46


def test_cpk_symmetric_process(tmp_path):
    """An in-spec alternating process has zero out-of-spec days and
    Cpk = (0.4/0.9)·Cp·... — with band [0.6μ, 1.5μ], Cp/Cpk =
    (0.9/6)/(0.4/3) = 1.125 exactly as a ratio of the two mirrored
    chains."""
    from prclz_ray.pipelines.queries import q_cpk_daily_revenue
    d = str(tmp_path)
    _orders_days(d, [99, 101] * 15)
    out = q_cpk_daily_revenue(d).iloc[0]
    assert int(out["n_below_lsl"]) == 0
    assert int(out["n_above_usl"]) == 0
    assert abs(float(out["cp"]) / float(out["cpk"]) - 1.125) < 1e-3


def test_page_hinkley_detects_level_shift(tmp_path):
    """A flat series never alarms (PH stays 0); a mid-series level
    shift drives the cumulative deviation past 5σ·n and alarms."""
    from prclz_ray.pipelines.queries import q_page_hinkley_revenue
    d = str(tmp_path / "flat")
    os.makedirs(d)
    _orders_days(d, [100] * 30)
    flat = q_page_hinkley_revenue(d).iloc[0]
    assert int(flat["n_alarms"]) == 0
    assert int(flat["max_phn"]) == 0
    d2 = str(tmp_path / "shift")
    os.makedirs(d2)
    _orders_days(d2, [100] * 30 + [200] * 30)
    shift = q_page_hinkley_revenue(d2).iloc[0]
    assert int(shift["n_alarms"]) > 0
    assert int(shift["first_alarm_day"]) > 0


def test_rsi_regimes(tmp_path):
    """A monotone up-ramp pins RSI at exactly 100 (no losses in any
    window); a flat series pins the 50 convention on integer zeros;
    alternating ±equal steps pins exactly 50 by symmetry."""
    from prclz_ray.pipelines.queries import q_rsi14_daily_revenue
    d = str(tmp_path / "up")
    os.makedirs(d)
    _orders_days(d, range(100, 130))
    up = q_rsi14_daily_revenue(d)
    assert (up["rsi"] == 100.0).all()
    d2 = str(tmp_path / "flat")
    os.makedirs(d2)
    _orders_days(d2, [100] * 30)
    flat = q_rsi14_daily_revenue(d2)
    assert (flat["rsi"] == 50.0).all()
    assert (flat["gain14"] == 0).all()
    d3 = str(tmp_path / "alt")
    os.makedirs(d3)
    _orders_days(d3, [100, 102] * 15)
    alt = q_rsi14_daily_revenue(d3)
    assert (alt["rsi"] == 50.0).all()


def test_sortino_sentinel_on_upside_only(tmp_path):
    """A strictly rising series has zero downside: sortino reports the
    −1 sentinel while sharpe stays finite."""
    from prclz_ray.pipelines.queries import q_sharpe_sortino_revenue
    d = str(tmp_path)
    _orders_days(d, [100 + 3 * i + (i % 2) for i in range(20)])
    out = q_sharpe_sortino_revenue(d).iloc[0]
    assert float(out["sortino"]) == -1.0
    assert float(out["sharpe"]) > 0


def test_ulcer_zero_without_drawdown(tmp_path):
    """Monotone growth never goes under water: UI and max_dd are
    exactly 0 (integer nano-sum 0); a single 50% dip from peak 200
    pins max_dd at exactly 50%."""
    from prclz_ray.pipelines.queries import q_ulcer_index_revenue
    d = str(tmp_path / "up")
    os.makedirs(d)
    _orders_days(d, range(100, 120))
    up = q_ulcer_index_revenue(d).iloc[0]
    assert int(up["dd2_sum_e9"]) == 0
    assert float(up["ulcer_index"]) == 0.0
    d2 = str(tmp_path / "dip")
    os.makedirs(d2)
    _orders_days(d2, [200, 100, 200])
    dip = q_ulcer_index_revenue(d2).iloc[0]
    assert float(dip["max_dd_pct"]) == 50.0


def test_terrain_family_single_peak(tmp_path):
    """One customer lifts corner cell 0 of an otherwise flat DEM:
    every interior cell shades at the exact flat-ground constant
    333333 (cos² = 1/3 of the NW light), TWI is NULL on zero slope
    with unit flow accumulation, and the basins are 1023 singletons
    plus the peak draining into cell 1 (size-2 basin, D8 first-in-
    order tiebreak)."""
    from prclz_ray.pipelines.queries import (
        q_d8_basin_sizes, q_hillshade_grid, q_twi_grid)
    d = str(tmp_path)
    # custkey 1000 maps to cell (0, 0) under the shared point hash
    pq.write_table(pa.table({
        "c_custkey": pa.array([1000], type=pa.int64()),
        "c_acctbal": pa.array([77.0])}),
        os.path.join(d, "customer.parquet"))
    hs = q_hillshade_grid(d).set_index("cell")
    interior = [c for c in range(1024)
                if c % 32 not in (0, 31) and c // 32 not in (0, 31)]
    assert (hs.loc[interior, "shade_e6"] == 333333).all()
    assert hs.loc[0, "shade_e6"] != hs.loc[0, "shade_e6"] \
        or pd.isna(hs.loc[0, "shade_e6"])
    twi = q_twi_grid(d).set_index("cell")
    assert (twi.loc[interior, "flow_acc"] == 1).all()
    assert twi.loc[interior, "twi"].isna().all()
    basins = q_d8_basin_sizes(d)
    assert len(basins) == 1023
    assert int(basins["n_cells"].max()) == 2
    two = basins[basins["n_cells"] == 2]
    assert int(two["sink_cell"].iloc[0]) == 1


def _cp_events(d, clicks, purchases):
    pq.write_table(pa.table({
        "event_type": pa.array(["click"] * len(clicks)
                               + ["purchase"] * len(purchases)),
        "value": pa.array([float(v) for v in clicks]
                          + [float(v) for v in purchases])}),
        os.path.join(d, "events.parquet"))


def test_mood_median_clean_split(tmp_path):
    """Purchases all above / clicks all below the pooled median: the
    2×2 is diagonal and χ² = N exactly (the maximal association)."""
    from prclz_ray.pipelines.queries import q_mood_median_test
    d = str(tmp_path)
    _cp_events(d, [1, 2, 3, 4], [10, 11, 12, 13])
    out = q_mood_median_test(d).iloc[0]
    assert int(out["n_purch_above"]) == 4
    assert int(out["n_click_above"]) == 0
    assert float(out["chi2"]) == 8.0


def test_ansari_bradley_spread_detection(tmp_path):
    """Purchases hugging the center vs clicks at the extremes: the
    purchase AB score (center ranks score HIGH) exceeds its null
    expectation → z > 0; swapping roles flips the sign."""
    from prclz_ray.pipelines.queries import q_ansari_bradley_scale
    d = str(tmp_path / "tight")
    os.makedirs(d)
    _cp_events(d, [1, 2, 19, 20], [9, 10, 11, 12])
    out = q_ansari_bradley_scale(d).iloc[0]
    assert 4 * int(out["ab_score"]) > int(out["e4_null"])
    assert float(out["z_ab"]) > 0
    d2 = str(tmp_path / "wide")
    os.makedirs(d2)
    _cp_events(d2, [9, 10, 11, 12], [1, 2, 19, 20])
    out2 = q_ansari_bradley_scale(d2).iloc[0]
    assert float(out2["z_ab"]) < 0


def test_cvm_zero_for_identical(tmp_path):
    """Identical click and purchase distributions give t_num = 0 (the
    cleared integer) and T = 0; disjoint supports give a large T."""
    from prclz_ray.pipelines.queries import q_cramer_von_mises_2samp
    d = str(tmp_path / "same")
    os.makedirs(d)
    _cp_events(d, [5, 6, 7], [5, 6, 7])
    same = q_cramer_von_mises_2samp(d).iloc[0]
    assert int(same["t_num"]) == 0
    assert float(same["cvm_t"]) == 0.0
    d2 = str(tmp_path / "far")
    os.makedirs(d2)
    _cp_events(d2, [1, 2, 3], [11, 12, 13])
    far = q_cramer_von_mises_2samp(d2).iloc[0]
    assert float(far["cvm_t"]) > 0.3


def test_tornqvist_uniform_doubling(tmp_path):
    """Every part's unit price exactly doubles year-over-year with
    unchanged baskets: the Törnqvist index is 2 (weights sum to 1,
    each log-relative ln 2)."""
    from prclz_ray.pipelines.queries import q_tornqvist_price_index
    d = str(tmp_path)
    y0 = np.datetime64("1994-06-01", "us")
    y1 = np.datetime64("1995-06-01", "us")
    pk, ep, qt, sd = [], [], [], []
    for p, price in ((1, 10.0), (2, 30.0)):
        pk += [p, p]
        ep += [price, 2 * price]
        qt += [1.0, 1.0]
        sd += [y0, y1]
    pq.write_table(pa.table({
        "l_partkey": pa.array(pk, type=pa.int64()),
        "l_extendedprice": pa.array(ep),
        "l_quantity": pa.array(qt),
        "l_shipdate": pa.array(sd)}),
        os.path.join(d, "lineitem.parquet"))
    out = q_tornqvist_price_index(d).iloc[0]
    assert int(out["n_parts"]) == 2
    assert abs(float(out["tornqvist"]) - 2.0) < 1e-5


def test_erlang_b_known_value(tmp_path):
    """Offered load a = 2 Erlang (10 events over 5 days): B(1) = 2/3,
    B(2) = 2·(2/3)/(2+4/3) = 0.4 — the textbook loss recursion."""
    from prclz_ray.pipelines.queries import q_erlang_b_blocking
    d = str(tmp_path)
    base = np.datetime64("1995-01-01", "us")
    day = np.timedelta64(1, "D").astype("timedelta64[us]")
    ts = [base + (i % 5) * day for i in range(10)]
    pq.write_table(pa.table({"ts": pa.array(ts)}),
                   os.path.join(d, "events.parquet"))
    out = q_erlang_b_blocking(d).set_index("servers")
    assert abs(float(out.loc[1, "erlang_b"]) - 2 / 3) < 1e-6
    assert abs(float(out.loc[2, "erlang_b"]) - 0.4) < 1e-6


def test_kish_neff_extremes(tmp_path):
    """Equal weights → n_eff = n and deff = 1 exactly; one dominant
    customer collapses n_eff toward 1."""
    from prclz_ray.pipelines.queries import q_kish_neff_customers
    d = str(tmp_path / "eq")
    os.makedirs(d)
    pq.write_table(pa.table({
        "o_custkey": pa.array([1, 2, 3, 4], type=pa.int64())}),
        os.path.join(d, "orders.parquet"))
    eq = q_kish_neff_customers(d).iloc[0]
    assert float(eq["n_eff"]) == 4.0
    assert float(eq["deff"]) == 1.0
    d2 = str(tmp_path / "skew")
    os.makedirs(d2)
    pq.write_table(pa.table({
        "o_custkey": pa.array([1] * 97 + [2, 3, 4],
                              type=pa.int64())}),
        os.path.join(d2, "orders.parquet"))
    sk = q_kish_neff_customers(d2).iloc[0]
    assert float(sk["n_eff"]) < 1.2


def test_ngram_coverage_zipfian(tmp_path):
    """One dominant word covering 90 of 100 occurrences: top-10
    coverage must include it plus the 9 singletons = 99/100; total
    is exact."""
    from prclz_ray.pipelines.queries import q_ngram_coverage_curve
    d = str(tmp_path)
    text = " ".join(["the"] * 90 + [f"w{i}" for i in range(10)])
    _docs_tbl(d, [text], ["en"])
    out = q_ngram_coverage_curve(d).set_index("k")
    assert int(out.loc[10, "total"]) == 100
    assert int(out.loc[10, "covered"]) == 99
    assert float(out.loc[10, "coverage"]) == 0.99
    assert float(out.loc[1000, "coverage"]) == 1.0


def test_heaps_fit_pure_power_law(tmp_path):
    """Checkpoints engineered so V ≈ √T: docs sized so each 20%% slice
    doubles tokens while vocab grows by the root — β lands near 0.5
    on the quantized-lattice OLS (loose tolerance: 5 points)."""
    from prclz_ray.pipelines.queries import q_heaps_law_fit
    d = str(tmp_path)
    texts = []
    seen = 0
    for k in range(5):
        n_tok = 64
        n_new = [8, 3, 3, 2, 2][k]
        words = [f"v{seen + (i % n_new)}" for i in range(n_tok)]
        seen += n_new
        texts.append(" ".join(words))
    _docs_tbl(d, texts, ["en"] * 5)
    out = q_heaps_law_fit(d).iloc[0]
    assert int(out["n_checkpoints"]) == 5
    assert 0.1 < float(out["beta"]) < 1.0


def test_spiegelhalter_perfect_probabilities(tmp_path):
    """When outcomes are assigned at the scorer's own probability
    boundary the test must NOT blow up: numerator/denominator stay
    finite and Z is a finite number; and flipping every label flips
    the numerator's sign."""
    from prclz_ray.pipelines.queries import (
        q_spiegelhalter_z_calibration)
    d = str(tmp_path)
    texts = ["word " * (10 * (i + 1)) for i in range(9)]
    pq.write_table(pa.table({
        "doc_id": pa.array(list(range(9)), type=pa.int64()),
        "text": pa.array([t.strip() for t in texts]),
        "lang": pa.array(["en"] * 9),
        "n_chars": pa.array([len(t.strip()) for t in texts],
                            type=pa.int64())}),
        os.path.join(d, "documents.parquet"))
    out = q_spiegelhalter_z_calibration(d).iloc[0]
    assert int(out["n_docs"]) == 9
    assert np.isfinite(float(out["z_spiegelhalter"]))
    assert int(out["var_e9"]) > 0


def test_pcf_rings_sum_to_k_counts(tmp_path):
    """PCF ring pair counts must recompose Ripley's cumulative counts
    exactly (they share the cell-replicated histogram kernel); a
    two-point fixture at distance 7 puts its ordered pairs entirely
    in the (5,10] ring."""
    from prclz_ray.pipelines.queries import (
        q_pair_correlation_function, q_ripleys_k)
    d = str(tmp_path)
    # custkeys 1 and 322 sit at squared distance 82 on the lattice —
    # inside the (5, 10] ring (the x-coordinate pins k mod 1000, so y
    # is determined: pairs must be FOUND, not crafted)
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 322], type=pa.int64())}),
        os.path.join(d, "customer.parquet"))
    pcf = q_pair_correlation_function(d).set_index("r")
    assert int(pcf.loc[5, "ring_pairs"]) == 0
    assert int(pcf.loc[10, "ring_pairs"]) == 2
    kk = q_ripleys_k(d).set_index("r")
    assert int(kk.loc[10, "n_pairs"]) == 2
    assert (pcf["ring_pairs"].cumsum().to_numpy()
            == kk["n_pairs"].to_numpy()).all()


def test_morisita_regimes(tmp_path):
    """All points in one quadrat → I_M = 25 exactly (maximal
    clumping); one point per quadrat → I_M = 0 (n_q(n_q−1) vanishes
    everywhere)."""
    from prclz_ray.pipelines.queries import q_morisita_index
    clump, spread = [], []
    seen_q = {}
    for k in range(1, 400000):
        qx = ((k * 7919) % 1000) // 200
        qy = ((k * 104729) % 1000) // 200
        q = qy * 5 + qx
        if q == 12 and len(clump) < 6:
            clump.append(k)
        if q not in seen_q:
            seen_q[q] = k
        if len(clump) == 6 and len(seen_q) == 25:
            break
    d = str(tmp_path / "clump")
    os.makedirs(d)
    pq.write_table(pa.table({
        "c_custkey": pa.array(clump, type=pa.int64())}),
        os.path.join(d, "customer.parquet"))
    out = q_morisita_index(d).iloc[0]
    assert float(out["morisita"]) == 25.0
    d2 = str(tmp_path / "even")
    os.makedirs(d2)
    pq.write_table(pa.table({
        "c_custkey": pa.array(sorted(seen_q.values()),
                              type=pa.int64())}),
        os.path.join(d2, "customer.parquet"))
    ev = q_morisita_index(d2).iloc[0]
    assert float(ev["morisita"]) == 0.0
    assert int(ev["occupied"]) == 25


def test_general_g_highs_together(tmp_path):
    """Two adjacent high-revenue cells push G above E[G] (the
    high-clustered flag on integer cross-multiplication); the same
    mass on opposite corners drops G to zero numerator."""
    from prclz_ray.pipelines.queries import q_general_g_nation_revenue

    def fixture(dirpath, nations):
        pq.write_table(pa.table({
            "c_custkey": pa.array(list(range(1, len(nations) + 1)),
                                  type=pa.int64()),
            "c_nationkey": pa.array(nations, type=pa.int64())}),
            os.path.join(dirpath, "customer.parquet"))
        pq.write_table(pa.table({
            "o_custkey": pa.array(list(range(1, len(nations) + 1)),
                                  type=pa.int64()),
            "o_totalprice": pa.array([100.0] * len(nations))}),
            os.path.join(dirpath, "orders.parquet"))

    d = str(tmp_path / "adj")
    os.makedirs(d)
    fixture(d, [11, 12])        # rook neighbours
    adj = q_general_g_nation_revenue(d).iloc[0]
    assert bool(adj["high_clustered"])
    assert float(adj["g_stat"]) > float(adj["e_g"])
    d2 = str(tmp_path / "far")
    os.makedirs(d2)
    fixture(d2, [0, 24])        # opposite corners
    far = q_general_g_nation_revenue(d2).iloc[0]
    assert float(far["g_stat"]) == 0.0
    assert not bool(far["high_clustered"])


def test_multiple_testing_family(tmp_path):
    """One loud nation among five quiet ones: all three procedures
    reject exactly it (Holm ⊇ Bonferroni containment holds row-wise),
    Fisher's panel statistic sees it, and the A&S erf approximation
    tracks math.erfc to ≤2e-7."""
    import math
    from prclz_ray.pipelines.queries import (q_bh_fdr_nations, q_fisher_combined_nations, q_holm_bonferroni_nations)
    from prclz_ray.pipelines.queries.customer_stats import _nation_z_pvalues
    d = str(tmp_path)
    nk, bal = [], []
    ck = 1
    for nation in range(5):
        for _ in range(30):
            nk.append(nation)
            bal.append(500.0 if nation == 0 else 100.0
                       + (ck % 7) * 2.0)
            ck += 1
    pq.write_table(pa.table({
        "c_custkey": pa.array(list(range(1, len(nk) + 1)),
                              type=pa.int64()),
        "c_nationkey": pa.array(nk, type=pa.int64()),
        "c_acctbal": pa.array(bal)}),
        os.path.join(d, "customer.parquet"))
    pv = _nation_z_pvalues(d)
    for z, p in zip(pv["z"], pv["p"]):
        assert abs(p - math.erfc(abs(z) / math.sqrt(2))) < 2e-7
    bh = q_bh_fdr_nations(d).set_index("nk")
    assert bool(bh.loc[0, "bh_reject"])
    hb = q_holm_bonferroni_nations(d).set_index("nk")
    assert bool(hb.loc[0, "holm_reject"])
    # step-down dominates single-step: every Bonferroni rejection is
    # a Holm rejection
    assert (~hb["bonf_reject"] | hb["holm_reject"]).all()
    fc = q_fisher_combined_nations(d).iloc[0]
    assert int(fc["n_p_below_05"]) >= 1
    assert float(fc["fisher_x"]) > 2 * int(fc["m_tests"])


def _ev_stream(d, rows):
    """rows: list of (user, sec_offset, type, value)."""
    base = np.datetime64("1995-01-01T00:00:00", "us")
    sec = np.timedelta64(1, "s").astype("timedelta64[us]")
    pq.write_table(pa.table({
        "event_id": pa.array(list(range(len(rows))),
                             type=pa.int64()),
        "ts": pa.array([base + r[1] * sec for r in rows]),
        "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "event_type": pa.array([r[2] for r in rows]),
        "value": pa.array([float(r[3]) for r in rows])}),
        os.path.join(d, "events.parquet"))


def test_inspection_paradox_regimes(tmp_path):
    """Equal gaps → ratio exactly 1 (no paradox); a 1s+99s gap pair
    → ratio = 2·(1+9801)/10000 = 1.9604 exactly — the dashboard
    lie, quantified."""
    from prclz_ray.pipelines.queries import q_inspection_paradox_gaps
    d = str(tmp_path / "eq")
    os.makedirs(d)
    _ev_stream(d, [(1, 0, "click", 1), (1, 10, "click", 1),
                   (1, 20, "click", 1)])
    eq = q_inspection_paradox_gaps(d).iloc[0]
    assert float(eq["paradox_ratio"]) == 1.0
    d2 = str(tmp_path / "skew")
    os.makedirs(d2)
    _ev_stream(d2, [(1, 0, "click", 1), (1, 1, "click", 1),
                    (1, 100, "click", 1)])
    sk = q_inspection_paradox_gaps(d2).iloc[0]
    assert int(sk["sum_gap"]) == 100
    assert float(sk["paradox_ratio"]) == 1.9604


def test_pk_wait_deterministic_service(tmp_path):
    """Deterministic 1 s services: E[S²] = E[S]² so the M/D/1 value
    W_q = λ/(2(1−ρ)) follows the closed form computed from the same
    λ = n/span definition the op uses (11 arrivals over 20 s)."""
    from prclz_ray.pipelines.queries import q_pollaczek_khinchine_wait
    d = str(tmp_path)
    rows = [(1, 2 * i, "purchase", 1.0) for i in range(11)]
    _ev_stream(d, rows)
    out = q_pollaczek_khinchine_wait(d).iloc[0]
    lam = 11.0 / 20.0
    assert float(out["rho"]) == round(lam, 6)
    assert float(out["es_sec"]) == 1.0
    assert abs(float(out["wq_sec"])
               - lam / (2 * (1 - lam))) < 1e-6


def test_mtbf_mttr_crafted_episodes(tmp_path):
    """Two 2-error episodes 100 s apart (starts), each spanning 5 s:
    MTTR = 2 events / 5 s exactly, MTBF = 100 s; a healthy tail of
    clicks doesn't perturb the counts."""
    from prclz_ray.pipelines.queries import q_mtbf_mttr_errors
    d = str(tmp_path)
    rows = [(1, 0, "error", 1), (1, 5, "error", 1),
            (1, 50, "click", 1),
            (1, 100, "error", 1), (1, 105, "error", 1),
            (1, 200, "click", 1)]
    _ev_stream(d, rows)
    out = q_mtbf_mttr_errors(d).iloc[0]
    assert int(out["n_episodes"]) == 2
    assert float(out["mttr_events"]) == 2.0
    assert float(out["mttr_span_sec"]) == 5.0
    assert float(out["mtbf_sec"]) == 100.0


def test_mobility_family_crafted(tmp_path):
    """A user pinned to one cell (events on days d, d+25, d+50 — the
    mod-25 cycle) has rg = 0, entropy 0, and all jumps in the '0'
    band; a user alternating between two cells 1 apart has rg = 0.5
    exactly and H = ln 2."""
    from prclz_ray.pipelines.queries import (
        q_jump_length_bands, q_location_entropy_users,
        q_radius_of_gyration_users)
    d = str(tmp_path)
    base = np.datetime64("1995-01-01T12:00:00", "us")
    day = np.timedelta64(1, "D").astype("timedelta64[us]")
    ts, uid, eid = [], [], []
    for i in range(4):                    # user 1: same cell forever
        ts.append(base + 25 * i * day)
        uid.append(1)
        eid.append(len(eid))
    # user 50: days d and d+1 differ by one cell step; alternate via
    # the 25-cycle so exactly two cells are visited
    for i in range(4):
        ts.append(base + (i % 2) * day + 25 * (i // 2) * day)
        uid.append(50)
        eid.append(len(eid))
    pq.write_table(pa.table({
        "event_id": pa.array(eid, type=pa.int64()),
        "ts": pa.array(ts),
        "user_id": pa.array(uid, type=pa.int64())}),
        os.path.join(d, "events.parquet"))
    rg = q_radius_of_gyration_users(d).set_index("user_id")
    assert float(rg.loc[1, "rg"]) == 0.0
    ent = q_location_entropy_users(d).set_index("user_id")
    assert float(ent.loc[1, "h_nat"]) == 0.0
    assert int(ent.loc[1, "n_cells"]) == 1
    assert int(ent.loc[50, "n_cells"]) == 2
    assert abs(float(ent.loc[50, "h_nat"]) - np.log(2)) < 1e-5
    # user 50 visits two cells with equal counts → rg = 0.5·d where
    # the two cells are adjacent on the lattice ⇒ rg ∈ {0.5, ...}
    assert float(rg.loc[50, "rg"]) > 0
    bands = q_jump_length_bands(d).set_index("band")
    assert int(bands.loc["0", "n_jumps"]) >= 3


def test_wilcoxon_signed_rank_balance(tmp_path):
    """A perfectly antisymmetric diff set (+k and −k in pairs) puts
    2W⁺ exactly at its null m(m+1)/2 → z = 0; all-positive diffs
    drive z > 0."""
    from prclz_ray.pipelines.queries import q_wilcoxon_signed_rank_weekly
    d = str(tmp_path / "sym")
    os.makedirs(d)
    # 14-day pattern: week2 = week1 + (+10,-10,+20,-20,+30,-30, 0)
    wk1 = [100, 100, 100, 100, 100, 100, 100]
    wk2 = [110, 90, 120, 80, 130, 70, 100]
    _orders_days(d, wk1 + wk2)
    out = q_wilcoxon_signed_rank_weekly(d).iloc[0]
    assert int(out["n_nonzero"]) == 6
    assert int(out["w2_plus"]) == int(out["e2_null"])
    assert float(out["z_wilcoxon"]) == 0.0
    d2 = str(tmp_path / "up")
    os.makedirs(d2)
    _orders_days(d2, wk1 + [110, 120, 130, 140, 150, 160, 170])
    up = q_wilcoxon_signed_rank_weekly(d2).iloc[0]
    assert float(up["z_wilcoxon"]) > 0


def test_kendalls_w_and_footrule_extremes(tmp_path):
    """Three perfectly concordant rankings (price, size, demand all
    increasing in partkey) give W = 1 and footrule similarity = 1;
    reversing the demand ranking drops both."""
    from prclz_ray.pipelines.queries import (
        q_kendalls_w_parts, q_spearman_footrule_parts)
    d = str(tmp_path / "agree")
    os.makedirs(d)
    n = 8
    pq.write_table(pa.table({
        "p_partkey": pa.array(list(range(1, n + 1)),
                              type=pa.int64()),
        "p_retailprice": pa.array([10.0 * i for i in range(1, n + 1)]),
        "p_size": pa.array(list(range(1, n + 1)), type=pa.int64())}),
        os.path.join(d, "part.parquet"))
    pq.write_table(pa.table({
        "l_partkey": pa.array(list(range(1, n + 1)),
                              type=pa.int64()),
        "l_quantity": pa.array([float(i) for i in range(1, n + 1)])}),
        os.path.join(d, "lineitem.parquet"))
    w = q_kendalls_w_parts(d).iloc[0]
    assert float(w["kendalls_w"]) == 1.0
    f = q_spearman_footrule_parts(d).iloc[0]
    assert int(f["footrule_d"]) == 0
    assert float(f["similarity"]) == 1.0
    d2 = str(tmp_path / "discord")
    os.makedirs(d2)
    pq.write_table(pa.table({
        "p_partkey": pa.array(list(range(1, n + 1)),
                              type=pa.int64()),
        "p_retailprice": pa.array([10.0 * i for i in range(1, n + 1)]),
        "p_size": pa.array(list(range(1, n + 1)), type=pa.int64())}),
        os.path.join(d2, "part.parquet"))
    pq.write_table(pa.table({
        "l_partkey": pa.array(list(range(1, n + 1)),
                              type=pa.int64()),
        "l_quantity": pa.array([float(n + 1 - i)
                                for i in range(1, n + 1)])}),
        os.path.join(d2, "lineitem.parquet"))
    w2 = q_kendalls_w_parts(d2).iloc[0]
    assert float(w2["kendalls_w"]) < 1.0
    f2 = q_spearman_footrule_parts(d2).iloc[0]
    assert int(f2["footrule_d"]) == n * n // 2
    assert float(f2["similarity"]) == 0.0


def test_accessibility_family_crafted(tmp_path):
    """One facility at the customer's own point: nearest-d² median 0,
    nobody underserved; 2SFCA gives that nation exactly cap/demand
    accessibility; the Voronoi population lands on the nearest
    facility with the suppkey tiebreak."""
    from prclz_ray.pipelines.queries import (
        q_nearest_facility_distance, q_two_step_fca,
        q_voronoi_service_population)
    d = str(tmp_path)
    # facility = supplier 3 at the same lattice point as customer 3
    pq.write_table(pa.table({
        "s_suppkey": pa.array([3], type=pa.int64())}),
        os.path.join(d, "supplier.parquet"))
    pq.write_table(pa.table({
        "c_custkey": pa.array([3], type=pa.int64()),
        "c_nationkey": pa.array([7], type=pa.int64())}),
        os.path.join(d, "customer.parquet"))
    nf = q_nearest_facility_distance(d).iloc[0]
    assert int(nf["median_d2"]) == 0
    assert int(nf["n_underserved"]) == 0
    fca = q_two_step_fca(d).set_index("nk")
    cap = 1 + 3 % 3                        # = 1
    assert abs(float(fca.loc[7, "mean_access"]) - cap / 1.0) < 1e-6
    vor = q_voronoi_service_population(d).set_index("sk")
    assert int(vor.loc[3, "service_pop"]) == 1
    assert float(vor.loc[3, "pressure"]) == 1.0


def test_ir_family_perfect_ranker(tmp_path):
    """Docs engineered so longer text ⇒ lower score and relevance
    follows doc_id%3: with relevant docs all ranked FIRST the curve
    is flat 1.0, R-precision = 1, bpref = 1; reversing relevance
    collapses R-precision to 0."""
    from prclz_ray.pipelines.queries import (
        q_bpref_doc_score, q_eleven_point_pr, q_r_precision)
    d = str(tmp_path)
    # doc_ids 0,3 relevant (id%3==0). Give them SHORT text (high x1
    # dominates? score = sig(0.25 + 0.8*chars/1000 - 0.5*words/100):
    # chars ↑ raises score, words ↓ raises score. Make relevant docs
    # long-char few-word (high score), others many-word (low score).
    texts, ids = [], []
    for i in range(6):
        if i % 3 == 0:
            texts.append("x" * 400)          # 1 word, 400 chars
        else:
            texts.append("a " * 150)         # 150 words
        ids.append(i)
    pq.write_table(pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "text": pa.array([t.strip() for t in texts]),
        "lang": pa.array(["en"] * 6),
        "n_chars": pa.array([len(t.strip()) for t in texts],
                            type=pa.int64())}),
        os.path.join(d, "documents.parquet"))
    pr = q_eleven_point_pr(d)
    assert (pr["interp_precision"] == 1.0).all()
    rp = q_r_precision(d).iloc[0]
    assert float(rp["r_precision"]) == 1.0
    bp = q_bpref_doc_score(d).iloc[0]
    assert float(bp["bpref"]) == 1.0


def test_benford_second_digit_uniform_vs_benford(tmp_path):
    """Prices crafted as 10,11,...,99 dollars (uniform second digit)
    are FAR from the Benford second-digit law — every digit observed
    9 times, χ² > 0 — and the digit extraction is exact at the
    power-of-ten boundary (1000 cents → second digit 0)."""
    from prclz_ray.pipelines.queries import q_benford_second_digit
    d = str(tmp_path)
    _orders_tbl(d, ["1-URGENT"] * 90,
                [float(v) for v in range(10, 100)])
    out = q_benford_second_digit(d)
    assert (out["observed"] == 9).all()
    assert float(out["chi2"].iloc[0]) > 0


def test_hurst_regimes(tmp_path):
    """A persistent ramp drives H toward 1 (R grows ~linearly in n);
    an alternating series is strongly anti-persistent with H near
    0."""
    from prclz_ray.pipelines.queries import q_hurst_rs_revenue
    d = str(tmp_path / "ramp")
    os.makedirs(d)
    _orders_days(d, range(100, 228))
    ramp = q_hurst_rs_revenue(d).iloc[0]
    assert float(ramp["hurst"]) > 0.85
    d2 = str(tmp_path / "alt")
    os.makedirs(d2)
    _orders_days(d2, [100, 200] * 64)
    alt = q_hurst_rs_revenue(d2).iloc[0]
    assert float(alt["hurst"]) < 0.3


def test_gini_vocab_extremes(tmp_path):
    """A perfectly uniform vocabulary has Gini 0 exactly; one word
    owning 96 of 100 tokens pushes Gini near 1."""
    from prclz_ray.pipelines.queries import q_gini_vocab_frequencies
    d = str(tmp_path / "uni")
    os.makedirs(d)
    _docs_tbl(d, [" ".join(f"w{i}" for i in range(20))], ["en"])
    uni = q_gini_vocab_frequencies(d).iloc[0]
    assert int(uni["gini_num"]) == 0
    assert float(uni["gini"]) == 0.0
    d2 = str(tmp_path / "head")
    os.makedirs(d2)
    _docs_tbl(d2, [" ".join(["the"] * 96 + ["a", "b", "c", "d"])],
              ["en"])
    hd = q_gini_vocab_frequencies(d2).iloc[0]
    assert float(hd["gini"]) > 0.7


def _orders_lifetimes(d, custs):
    """custs: list of (custkey, first_day, last_day, n_mid_orders)."""
    base = np.datetime64("1995-01-01", "us")
    day = np.timedelta64(1, "D").astype("timedelta64[us]")
    ck, od = [], []
    for c, f, l, nm in custs:
        ck.append(c)
        od.append(base + f * day)
        for i in range(nm):
            ck.append(c)
            od.append(base + (f + i + 1) * day)
        if l > f:
            ck.append(c)
            od.append(base + l * day)
    pq.write_table(pa.table({
        "o_custkey": pa.array(ck, type=pa.int64()),
        "o_orderdate": pa.array(od)}),
        os.path.join(d, "orders.parquet"))


def test_survival_family_crafted(tmp_path):
    """Four customers: two churn (lifetimes 10 and 30; one low-
    engagement, one engaged), two censored at the horizon.  CIF
    splits causes without exceeding 1 − S; RMST at τ = 180 integrates
    exactly the crafted steps; the life table's half-censoring
    hazard is the cleared 2d/(2n−c)."""
    from prclz_ray.pipelines.queries import (
        q_aalen_johansen_cif, q_life_table_retention,
        q_rmst_retention)
    d = str(tmp_path)
    # horizon = day 400 (customer 4's last order); churned iff
    # horizon − last ≥ 90
    _orders_lifetimes(d, [
        (1, 0, 10, 1),       # lifetime 10, 3 orders  → low churn
        (2, 0, 30, 3),       # lifetime 30, 5 orders  → engaged churn
        (3, 300, 395, 0),    # lifetime 95, censored
        (4, 250, 400, 0)])   # lifetime 150, censored
    cif = q_aalen_johansen_cif(d).set_index("t_days")
    assert int(cif.loc[10, "d_low"]) == 1
    assert float(cif.loc[10, "cif_low"]) == 0.25
    assert int(cif.loc[30, "d_engaged"]) == 1
    # S(10−)=1 → cif_low jumps 1/4; S(30−)=3/4 → cif_engaged = 1/4·1
    assert abs(float(cif.loc[30, "cif_engaged"]) - 0.25) < 1e-6
    rm = q_rmst_retention(d).iloc[0]
    # S=1 on [0,10), 3/4 on [10,30), then drops to 3/4·(1−1/3)=1/2?
    # at t=30 r=3 d=1 → S=3/4·2/3=1/2 on [30,95), after censors S
    # stays 1/2 until 150, then (r=1,d=0) — area:
    # 10 + 20·0.75 + 65·0.5 + 55·0.5 + 30·0.5 = 10+15+75 = 100
    assert abs(float(rm["rmst_days"]) - 100.0) < 1e-5
    lt = q_life_table_retention(d).set_index("band")
    # band 0 (days 0-29): enters 4, churn d=1 (t=10), censored 0
    assert int(lt.loc[0, "n_enter"]) == 4
    assert float(lt.loc[0, "q_hazard"]) == 0.25


def test_regression_diagnostics_family(tmp_path):
    """A clean single line has Chow F ≈ 0 (split SSRs recompose the
    pooled) and tiny BP; a slope break at mid-sample blows up Chow F;
    heteroskedastic late-half noise flips BP's variance_grows and
    shifts the CUSUMSQ excursion late."""
    from prclz_ray.pipelines.queries import (
        q_breusch_pagan_revenue, q_chow_test_revenue,
        q_cusum_squares_revenue)
    d = str(tmp_path / "line")
    os.makedirs(d)
    _orders_days(d, [100 + 2 * i for i in range(60)])
    line = q_chow_test_revenue(d).iloc[0]
    assert abs(float(line["f_chow"])) < 1e-3
    d2 = str(tmp_path / "brk")
    os.makedirs(d2)
    # small ±1 wiggle keeps the segment SSRs nonzero (an exact line
    # per half hits the mirrored 0/0 sentinel instead)
    _orders_days(d2, [100 + 2 * i + (i % 2) for i in range(30)]
                 + [160 + 20 * i + (i % 2) for i in range(30)])
    brk = q_chow_test_revenue(d2).iloc[0]
    assert float(brk["f_chow"]) > 10
    d3 = str(tmp_path / "het")
    os.makedirs(d3)
    vals = [100 for _ in range(30)] \
        + [100 + (80 if i % 2 else -50) for i in range(30)]
    _orders_days(d3, vals)
    bp = q_breusch_pagan_revenue(d3).iloc[0]
    assert bool(bp["variance_grows"])
    cs = q_cusum_squares_revenue(d3).iloc[0]
    assert int(cs["argmax_t"]) <= 32   # flat-half deficit peaks at the boundary
    assert float(cs["max_excursion"]) > 0.3


def test_market_design_family(tmp_path):
    """Uniform-price: 150 bids 1..150 dollars, K=100 → price = the
    101st highest = 50.00, revenue exact; McAfee: crossing books
    yield k*, k*−1 trades and the (k*+1)-pair midpoint (doubled);
    Shapley–Shubik: weights (5,3,2) with quota 5 give the textbook
    (4,1,1)/6 split — raw weight shares mislead, the index doesn't."""
    from prclz_ray.pipelines.queries import (
        q_mcafee_double_auction, q_shapley_shubik_power,
        q_uniform_price_auction)
    d = str(tmp_path)
    pq.write_table(pa.table({
        "p_partkey": pa.array(list(range(1, 151)), type=pa.int64()),
        "p_retailprice": pa.array([float(i)
                                   for i in range(1, 151)])}),
        os.path.join(d, "part.parquet"))
    up = q_uniform_price_auction(d).iloc[0]
    assert int(up["clearing_price_c"]) == 5000
    assert int(up["lowest_winning_bid_c"]) == 5100
    assert int(up["revenue_c"]) == 500000
    # buyers 10,9,8; sellers 1,2,30 → k*=2 (b2=9≥s2=2; b3=8<s3=30),
    # price2 = b3+s3 = 800+3000, trades 1
    _cp_events(d, [1, 2, 30], [10, 9, 8])
    ma = q_mcafee_double_auction(d).iloc[0]
    assert int(ma["k_efficient"]) == 2
    assert int(ma["n_trades"]) == 1
    assert int(ma["price2_c"]) == 3800
    # nations 0,1,2 with revenue 5,3,2 cents
    _seat_fixture(d, [5, 3, 2])
    ss = q_shapley_shubik_power(d).set_index("n_nationkey")
    assert int(ss.loc[0, "n_pivotal"]) == 4
    assert int(ss.loc[1, "n_pivotal"]) == 1
    assert int(ss.loc[2, "n_pivotal"]) == 1


def test_off_policy_family_uniform_log(tmp_path):
    """A crafted log where the policy matches exactly the 10-dollar
    events and never the 2-dollar ones: replay = 10.00 exactly, IPS
    = 5·matched/N, and with a perfectly-specified per-arm model the
    DR correction is 0 and DR = the model value."""
    from prclz_ray.pipelines.queries import (
        q_doubly_robust_policy, q_ips_off_policy,
        q_policy_replay_eval)
    d = str(tmp_path)
    base = np.datetime64("1995-01-01T00:00:00", "us")
    hour = np.timedelta64(3600, "s").astype("timedelta64[us]")
    # hour 0 → arm 0 = click. Log: at hour 0, 2 click events (match,
    # 10.00) and 2 purchase events (no match, 2.00)
    ts = [base, base, base, base]
    et = ["click", "click", "purchase", "purchase"]
    val = [10.0, 10.0, 2.0, 2.0]
    pq.write_table(pa.table({
        "ts": pa.array(ts), "event_type": pa.array(et),
        "value": pa.array(val)}),
        os.path.join(d, "events.parquet"))
    rp = q_policy_replay_eval(d).iloc[0]
    assert int(rp["n_matched"]) == 2
    assert float(rp["replay_value"]) == 1000.0
    ips = q_ips_off_policy(d).iloc[0]
    # 5·2000 cents / 4 events
    assert float(ips["ips_value"]) == 2500.0
    dr = q_doubly_robust_policy(d).iloc[0]
    # q̂(click)=1000 exactly → correction = 5·(2000 − 2·1000)/4 = 0
    assert float(dr["correction"]) == 0.0


def test_encoding_family_crafted(tmp_path):
    """Dense consecutive orderkeys delta-encode at 1 byte each (plus
    the varint of the first key) → ratio near 8; a dense user-id
    chunk ≥4096 goes BITMAP while a sparse one stays ARRAY; perfectly
    regular heartbeats cost exactly 1 bit per delta-of-delta."""
    from prclz_ray.pipelines.queries import (
        q_delta_varint_estimate, q_gorilla_timestamp_bits,
        q_roaring_container_census)
    d = str(tmp_path)
    pq.write_table(pa.table({
        "o_orderkey": pa.array(list(range(1, 1001)),
                               type=pa.int64())}),
        os.path.join(d, "orders.parquet"))
    dv = q_delta_varint_estimate(d).iloc[0]
    assert int(dv["varint_bytes"]) == 1000   # 999 ones + 1-byte first
    assert float(dv["ratio"]) == 8.0
    ids = list(range(5000)) + [65536 * 3 + v for v in range(10)]
    pq.write_table(pa.table({
        "user_id": pa.array(ids, type=pa.int64())}),
        os.path.join(d, "events_roaring.parquet"))
    os.replace(os.path.join(d, "events_roaring.parquet"),
               os.path.join(d, "events.parquet"))
    rc = q_roaring_container_census(d).iloc[0]
    assert int(rc["bitmap_containers"]) == 1
    assert int(rc["array_containers"]) == 1
    assert int(rc["roaring_bytes"]) == 8192 + 20
    base = np.datetime64("1995-01-01T00:00:00", "us")
    sec = np.timedelta64(60, "s").astype("timedelta64[us]")
    pq.write_table(pa.table({
        "event_id": pa.array(list(range(50)), type=pa.int64()),
        "ts": pa.array([base + i * sec for i in range(50)]),
        "user_id": pa.array([1] * 50, type=pa.int64())}),
        os.path.join(d, "events.parquet"))
    gb = q_gorilla_timestamp_bits(d).iloc[0]
    assert int(gb["n_dod"]) == 48
    assert float(gb["bits_per_sample"]) == 1.0


def test_outlier_tests_family(tmp_path):
    """One planted 10× balance: Grubbs names exactly that custkey
    (integer argmax), Dixon's top-Q is the exact gap/range rational,
    and both Tukey counts flag only the plant."""
    from prclz_ray.pipelines.queries import (
        q_dixon_q_acctbal, q_grubbs_acctbal, q_tukey_fences_acctbal)
    d = str(tmp_path)
    bal = [100.0 + (i % 5) for i in range(20)] + [1000.0]
    pq.write_table(pa.table({
        "c_custkey": pa.array(list(range(1, 22)), type=pa.int64()),
        "c_acctbal": pa.array(bal)}),
        os.path.join(d, "customer.parquet"))
    gr = q_grubbs_acctbal(d).iloc[0]
    assert int(gr["outlier_custkey"]) == 21
    assert float(gr["g_stat"]) > 4
    dx = q_dixon_q_acctbal(d).iloc[0]
    # top gap = 100000−10400, range = 100000−10000
    assert float(dx["q_top"]) == round(89600 / 90000, 6)
    tk = q_tukey_fences_acctbal(d).iloc[0]
    assert int(tk["n_mild_out"]) == 1
    assert int(tk["n_extreme_out"]) == 1


def test_sequential_ab_family(tmp_path):
    """A rigged 90/10 split trips the SRM alarm exactly at the
    integer-cleared 3.841 threshold; a huge fake effect crosses the
    O'F boundary by the final look; a dead-flat test reports
    near-zero conditional power (futile) at the first look."""
    from prclz_ray.pipelines.queries import (
        q_conditional_power_futility, q_obrien_fleming_looks,
        q_srm_check)
    d = str(tmp_path)
    base = np.datetime64("1995-01-01T00:00:00", "us")
    day = np.timedelta64(1, "D").astype("timedelta64[us]")
    ts, uid, et = [], [], []
    for dd in range(10):
        for i in range(90):              # arm 0 (even ids)
            ts.append(base + dd * day)
            uid.append(2 * i)
            et.append("purchase" if i < 45 else "view")
        for i in range(10):              # arm 1 (odd ids)
            ts.append(base + dd * day)
            uid.append(2 * i + 1)
            et.append("view")
    pq.write_table(pa.table({
        "ts": pa.array(ts),
        "user_id": pa.array(uid, type=pa.int64()),
        "event_type": pa.array(et)}),
        os.path.join(d, "events.parquet"))
    srm = q_srm_check(d).iloc[0]
    assert bool(srm["srm_alarm"])
    obf = q_obrien_fleming_looks(d)
    assert bool(obf["crossed"].iloc[-1])
    # flat test: both arms identical
    ts2, uid2, et2 = [], [], []
    for dd in range(10):
        for i in range(40):
            ts2.append(base + dd * day)
            uid2.append(i)
            # i%8 in {0,1} puts one purchase on EACH parity per
            # octet — a truly flat test (i%4==0 was all-even)
            et2.append("purchase" if i % 8 in (0, 1) else "view")
    pq.write_table(pa.table({
        "ts": pa.array(ts2),
        "user_id": pa.array(uid2, type=pa.int64()),
        "event_type": pa.array(et2)}),
        os.path.join(d, "events.parquet"))
    cp = q_conditional_power_futility(d)
    assert bool(cp["futile"].iloc[0])
    assert float(cp["cond_power"].iloc[-1]) in (0.0, 1.0)


def test_spatial_model_family(tmp_path):
    """One customer in an interior DEM cell: the KDE hotspot is that
    cell with density exactly 6 (kernel center weight) and its ring
    cells score 4/1; spatial lag of a single hot nation spreads
    revenue/4 to rook neighbors; bivariate I is NEGATIVE for a lone
    coincident spike (the hot cell neighbors only poor cells — the
    cross-statistic reads neighborhoods, not coincidence)."""
    from prclz_ray.pipelines.queries import (
        q_bivariate_morans_i, q_kde_hotspots_grid,
        q_spatial_lag_cells)
    d = str(tmp_path)
    # custkey 16 maps to an interior grid cell under the /32 hash
    k = 16
    cx = ((k * 7919) % 1000) // 32
    cy = ((k * 104729) % 1000) // 32
    assert 0 < cx < 31 and 0 < cy < 31
    pq.write_table(pa.table({
        "c_custkey": pa.array([k], type=pa.int64()),
        "c_nationkey": pa.array([12], type=pa.int64())}),
        os.path.join(d, "customer.parquet"))
    pq.write_table(pa.table({
        "o_custkey": pa.array([k], type=pa.int64()),
        "o_totalprice": pa.array([100.0])}),
        os.path.join(d, "orders.parquet"))
    kd = q_kde_hotspots_grid(d)
    assert int(kd["cell"].iloc[0]) == cy * 32 + cx
    assert int(kd["kde_density"].iloc[0]) == 6
    assert set(kd["kde_density"].iloc[1:]) <= {4, 1}
    sl = q_spatial_lag_cells(d).set_index("nk")
    assert float(sl.loc[11, "wx"]) == 2500.0   # 10000/4 neighbors
    assert float(sl.loc[12, "wx"]) == 0.0
    bi = q_bivariate_morans_i(d).iloc[0]
    assert not bool(bi["positive_cross"])
    assert float(bi["bivariate_i"]) < 0


def test_mobility_anchor_family(tmp_path):
    """A user spending 3 days in one cell and 2 in an adjacent one
    anchors home/work exactly (count ties deterministic); the commute
    histogram puts them in the 1-2 band; and a big-capacity far
    facility steals the customer under the power diagram but not the
    plain one."""
    from prclz_ray.pipelines.queries import (
        q_commute_distance_histogram, q_home_work_inference,
        q_power_voronoi_assignment)
    d = str(tmp_path)
    base = np.datetime64("1995-01-01T08:00:00", "us")
    day = np.timedelta64(1, "D").astype("timedelta64[us]")
    u = 1
    # days 0..4: cells (31·1+d)%25 — days 0,25,50 hit one cell etc.
    # craft: 3 events on day 0 and 2 on day 1 → two adjacent cells
    ts = [base, base, base, base + day, base + day]
    pq.write_table(pa.table({
        "ts": pa.array(ts),
        "user_id": pa.array([u] * 5, type=pa.int64())}),
        os.path.join(d, "events.parquet"))
    c0 = (31 * u + int(ts[0].astype("datetime64[D]")
                       .astype(int))) % 25
    hw = q_home_work_inference(d).iloc[0]
    assert int(hw["home_cell"]) == c0
    assert int(hw["home_visits"]) == 3
    assert int(hw["work_visits"]) == 2
    ch = q_commute_distance_histogram(d).set_index("band")
    assert int(ch.loc["1-2", "n_users"]) == 1
    assert int(ch.loc["single_cell", "n_users"]) == 0
    # power diagram: customer 3 sits AT supplier 3 (cap 1); supplier
    # 9 (cap 1+9%3=1)... craft caps via suppkeys: sk=5 → cap 3
    pq.write_table(pa.table({
        "s_suppkey": pa.array([3, 5], type=pa.int64())}),
        os.path.join(d, "supplier.parquet"))
    pq.write_table(pa.table({
        "c_custkey": pa.array([3], type=pa.int64())}),
        os.path.join(d, "customer.parquet"))
    pv = q_power_voronoi_assignment(d).set_index("sk")
    assert int(pv.loc[3, "plain_pop"]) == 1     # coincident point
    # capacity 3 facility (sk=5) pulls iff d² − 40000·3 < 0 − 40000·1
    k3x, k3y = (3 * 7919) % 1000, (3 * 104729) % 1000
    k5x, k5y = (5 * 7919) % 1000, (5 * 104729) % 1000
    d2 = (k3x - k5x) ** 2 + (k3y - k5y) ** 2
    expect_steal = d2 - 40000 * 3 < -40000 * 1
    assert (int(pv.loc[5, "power_pop"]) == 1) == expect_steal


def test_sampling_estimators_family(tmp_path):
    """Priority sampling with k ≥ population returns the EXACT total
    (τ = 0, every weight kept); the German tank estimate on serials
    1..N with the full population sampled returns N exactly; charm
    audit counts .99 endings precisely."""
    from prclz_ray.pipelines.queries import (
        q_charm_pricing_audit, q_german_tank_orderkeys,
        q_priority_sampling_total)
    d = str(tmp_path)
    pq.write_table(pa.table({
        "o_orderkey": pa.array(list(range(1, 21)), type=pa.int64()),
        "o_totalprice": pa.array([10.0] * 20)}),
        os.path.join(d, "orders.parquet"))
    ps = q_priority_sampling_total(d).iloc[0]
    assert int(ps["estimate_e3"]) == int(ps["true_total_c"]) * 1000
    assert float(ps["rel_error"]) == 0.0
    # sample = hash%20==0 keys among 1..2000; k observed, max m
    pq.write_table(pa.table({
        "o_orderkey": pa.array(list(range(1, 2001)),
                               type=pa.int64()),
        "o_totalprice": pa.array([10.0] * 2000)}),
        os.path.join(d, "orders.parquet"))
    gt = q_german_tank_orderkeys(d).iloc[0]
    assert int(gt["true_max"]) == 2000
    assert int(gt["k_observed"]) > 50
    assert abs(float(gt["n_hat"]) - 2000) / 2000 < 0.05
    pq.write_table(pa.table({
        "p_brand": pa.array(["B#1"] * 4),
        "p_retailprice": pa.array([9.99, 19.99, 5.00, 7.23])}),
        os.path.join(d, "part.parquet"))
    ch = q_charm_pricing_audit(d).iloc[0]
    assert int(ch["n_p99"]) == 2
    assert int(ch["n_p00"]) == 1
    assert float(ch["lift99"]) == 50.0


def test_forecast_eval_family(tmp_path):
    """A 7-periodic series makes the seasonal-naive PERFECT (e₇ = 0):
    DM is positive (naive1 loses) and the loss sum pins the sign; a
    pure ramp gives constant naive error → zero MAD deviation,
    tracking signal exactly n; Theil's U earns the trend model its
    keep on that ramp."""
    from prclz_ray.pipelines.queries import (
        q_diebold_mariano_naive, q_theil_u_revenue,
        q_tracking_signal_naive)
    d = str(tmp_path / "per")
    os.makedirs(d)
    _orders_days(d, [100, 120, 90, 110, 130, 95, 105] * 6)
    dm = q_diebold_mariano_naive(d).iloc[0]
    assert int(dm["d_sum_m"]) >= 0
    assert not bool(dm["naive1_wins"])
    d2 = str(tmp_path / "ramp")
    os.makedirs(d2)
    _orders_days(d2, [100 + 10 * i for i in range(40)])
    ts = q_tracking_signal_naive(d2).iloc[0]
    # every naive error is +1000 cents: TS = Σe/(Σ|e|/n) = n
    assert float(ts["tracking_signal"]) == 39.0
    assert bool(ts["alarm"])
    tu = q_theil_u_revenue(d2).iloc[0]
    assert bool(tu["model_earns_keep"])
    assert float(tu["theil_u2"]) < 0.2


def test_distribution_drift_family(tmp_path):
    """Kuiper sees a symmetric crossing KS half-misses: click below
    AND above purchase support makes BOTH D⁺ and D⁻ positive; the QQ
    profile pins a pure location shift as a CONSTANT gap at every
    decile; MAUP variance inflates as the grid coarsens over a
    clustered pattern."""
    from prclz_ray.pipelines.queries import (
        q_kuiper_two_sample, q_maup_sensitivity_audit,
        q_qq_decile_drift)
    d = str(tmp_path)
    _cp_events(d, [1, 2, 9, 10], [5, 6, 7, 8])
    ku = q_kuiper_two_sample(d).iloc[0]
    assert int(ku["d_plus_num"]) > 0
    assert int(ku["d_minus_num"]) > 0
    d2 = str(tmp_path / "shift")
    os.makedirs(d2)
    _cp_events(d2, list(range(1, 11)), [v + 3 for v in range(1, 11)])
    qq = q_qq_decile_drift(d2)
    assert (qq["gap_c"] == 300).all()
    d3 = str(tmp_path / "maup")
    os.makedirs(d3)
    # clustered: many customers, one dense pocket (custkeys chosen
    # freely — the hash spreads them; clustering emerges at coarse
    # levels through aggregation regardless)
    pq.write_table(pa.table({
        "c_custkey": pa.array(list(range(1, 400)),
                              type=pa.int64())}),
        os.path.join(d3, "customer.parquet"))
    mp = q_maup_sensitivity_audit(d3).set_index("resolution")
    assert int(mp.loc[8, "total"]) == int(mp.loc[32, "total"])
    assert float(mp.loc[8, "var_inflation"]) > 1.0


def test_evt_family_crafted(tmp_path):
    """An exponential-ish crafted tail gives the GPD a near-zero shape
    (exponential is GPD with ξ = 0); the Gumbel block fit recovers μ
    between the yearly maxima; the in-sample ES backtest pins Z₂ = 0
    EXACTLY by construction."""
    from prclz_ray.pipelines.queries import (
        q_es_backtest_z2, q_gpd_pot_fit, q_gumbel_block_maxima)
    d = str(tmp_path)
    # daily revenue: 90 calm days then exceedances 1,2,4,8,...
    vals = [100] * 90 + [100 + 2 ** i for i in range(1, 9)]
    _orders_days(d, vals)
    gp = q_gpd_pot_fit(d).iloc[0]
    assert int(gp["n_exceed"]) >= 5
    z = q_es_backtest_z2(d).iloc[0]
    if int(z["tail_sum_c"]) == 0:
        assert float(z["z2_stat"]) == -1.0    # zero-tail sentinel
    else:
        # discrete identity: Z2 = n_exc/(0.05 N) − 1 (ES cancels)
        want = int(z["n_exceed"]) / (0.05 * int(z["n_losses"])) - 1
        assert abs(float(z["z2_stat"]) - want) < 1e-6
    # two "years" of data with distinct maxima
    base95 = [100 + (i % 7) for i in range(300)]
    base96 = [200 + (i % 7) for i in range(300)]
    _orders_days(d, base95 + base96)
    gb = q_gumbel_block_maxima(d).iloc[0]
    assert int(gb["n_blocks"]) >= 2
    assert 10000 < float(gb["mu_location"]) < 30000


def test_variance_components_family(tmp_path):
    """Identical balances within each nation but different across →
    MSW = 0 and ICC = 1 exactly, η² = 1; perfectly concordant part
    rankings → Cronbach's α = 1 (items are affine copies)."""
    from prclz_ray.pipelines.queries import (
        q_anova_effect_sizes_nation, q_cronbach_alpha_parts,
        q_icc_acctbal_nation)
    d = str(tmp_path)
    nk, bal = [], []
    for nation, v in ((0, 100.0), (1, 200.0), (2, 300.0)):
        for _ in range(6):
            nk.append(nation)
            bal.append(v)
    pq.write_table(pa.table({
        "c_nationkey": pa.array(nk, type=pa.int64()),
        "c_acctbal": pa.array(bal)}),
        os.path.join(d, "customer.parquet"))
    icc = q_icc_acctbal_nation(d).iloc[0]
    assert float(icc["msw"]) == 0.0
    assert float(icc["icc1"]) == 1.0
    es = q_anova_effect_sizes_nation(d).iloc[0]
    assert float(es["eta_sq"]) == 1.0
    # η² ≥ ω² with EQUALITY iff MSW = 0 — the strict flag is False
    # here, exactly as the algebra says
    assert float(es["omega_sq"]) == 1.0
    assert not bool(es["eta_exceeds_omega"])
    n = 8
    pq.write_table(pa.table({
        "p_partkey": pa.array(list(range(1, n + 1)),
                              type=pa.int64()),
        "p_retailprice": pa.array([10.0 * i
                                   for i in range(1, n + 1)]),
        "p_size": pa.array(list(range(1, n + 1)),
                           type=pa.int64())}),
        os.path.join(d, "part.parquet"))
    pq.write_table(pa.table({
        "l_partkey": pa.array(list(range(1, n + 1)),
                              type=pa.int64()),
        "l_quantity": pa.array([float(i)
                                for i in range(1, n + 1)])}),
        os.path.join(d, "lineitem.parquet"))
    ca = q_cronbach_alpha_parts(d).iloc[0]
    assert float(ca["cronbach_alpha"]) == 1.0


def test_supply_chain_family(tmp_path):
    """Constant demand 10/day with S = 20, s = 10: the position
    cycles 20→10 (no order, strict <) →0 (order) — 15 orders over 30
    days, never a stockout; the quantile ladder on constant demand
    pins every service level at the constant with safety stock
    exactly 0."""
    from prclz_ray.pipelines.queries import (
        q_inventory_policy_replay, q_safety_stock_ladder)
    d = str(tmp_path)
    base = np.datetime64("1995-01-01", "us")
    day = np.timedelta64(1, "D").astype("timedelta64[us]")
    pq.write_table(pa.table({
        "l_shipdate": pa.array([base + i * day for i in range(30)]),
        "l_quantity": pa.array([10.0] * 30)}),
        os.path.join(d, "lineitem.parquet"))
    rp = q_inventory_policy_replay(d).iloc[0]
    assert int(rp["s_upto"]) == 20
    assert int(rp["n_stockout_days"]) == 0
    assert int(rp["total_shortfall"]) == 0
    assert int(rp["n_orders"]) == 15     # every other day hits 0 < s
    ss = q_safety_stock_ladder(d)
    assert (ss["demand_q"] == 10).all()
    assert (ss["safety_stock"] == 0.0).all()


def test_graph_moments_family(tmp_path):
    """On the n=4 instance the degree moments are independently
    reconstructable; a REGULAR graph (every degree equal) pins the
    friendship-paradox gap to EXACTLY zero — the equality case the
    strict flag must respect; and the configuration-model triangle
    expectation matches the closed form on the reconstructed
    moments."""
    from prclz_ray.pipelines.queries import (q_config_model_triangles, q_epidemic_threshold_links,
                                             q_friendship_paradox_links)
    from prclz_ray.pipelines.queries.corpus_stats import _APSP_MEMO
    _APSP_MEMO.clear()
    d = str(tmp_path)
    n = 40
    _toy_docs(d, n)
    adj = _toy_adj(n)
    ks = [len(a) for a in adj]
    s1, s2 = sum(ks), sum(k * k for k in ks)
    ep = q_epidemic_threshold_links(d).iloc[0]
    assert int(ep["sum_k"]) == s1
    assert int(ep["sum_k2"]) == s2
    assert abs(float(ep["lambda_c"]) - s1 / (s2 - s1)) < 1e-6
    fp = q_friendship_paradox_links(d).iloc[0]
    assert int(fp["paradox_gap_num"]) == n * s2 - s1 * s1
    # variance of degrees > 0 here → strict paradox
    assert bool(fp["paradox_holds_strictly"]) == (n * s2 > s1 * s1)
    cm = q_config_model_triangles(d).iloc[0]
    want = ((s2 - s1) ** 3) / (6 * s1 ** 3)
    assert abs(float(cm["expected_triangles"]) - want) < 1e-5


def test_retrieval_scoring_family(tmp_path):
    """A doc that is nothing but the query terms tops all three
    rankers: coordination pins (3 terms, tf exact), JM and pivoted
    both rank it first with integer score keys; a term-free doc
    never enters the coordination top above a matching one."""
    from prclz_ray.pipelines.queries import (
        q_coordination_matching, q_jm_smoothing_retrieval,
        q_pivoted_length_retrieval)
    d = str(tmp_path)
    texts = ["join merge sort join merge sort",
             "join alpha beta gamma delta eps",
             "alpha beta gamma delta epsilon zeta"]
    _docs_tbl(d, texts, ["en"] * 3)
    cm = q_coordination_matching(d)
    assert int(cm["doc_id"].iloc[0]) == 0
    assert int(cm["n_terms_matched"].iloc[0]) == 3
    assert int(cm["total_tf"].iloc[0]) == 6
    assert int(cm["n_docs_full_match"].iloc[0]) == 1
    jm = q_jm_smoothing_retrieval(d)
    assert int(jm["doc_id"].iloc[0]) == 0
    pv = q_pivoted_length_retrieval(d)
    assert int(pv["doc_id"].iloc[0]) == 0
    # the all-query doc's pivoted score strictly beats the 1-term doc
    assert int(pv["score9"].iloc[0]) > int(pv["score9"].iloc[1])


def test_inequality_ratio_family(tmp_path):
    """Perfect equality pins Pietra = 0 exactly (the |n·c − S| sum
    vanishes) and both ratios at their size-determined constants;
    one customer holding everything sends Palma and S80/S20 to their
    max while Pietra → (n−1)/n·... stays < 1."""
    from prclz_ray.pipelines.queries import (
        q_palma_ratio_revenue, q_pietra_index_revenue,
        q_s80_s20_revenue)
    d = str(tmp_path / "eq")
    os.makedirs(d)
    pq.write_table(pa.table({
        "o_custkey": pa.array(list(range(1, 11)), type=pa.int64()),
        "o_totalprice": pa.array([100.0] * 10)}),
        os.path.join(d, "orders.parquet"))
    pi = q_pietra_index_revenue(d).iloc[0]
    assert int(pi["abs_dev_num"]) == 0
    assert float(pi["pietra"]) == 0.0
    pm = q_palma_ratio_revenue(d).iloc[0]
    # equal shares: top-1 sum / bottom-4 sum = 1/4
    assert float(pm["palma"]) == 0.25
    s8 = q_s80_s20_revenue(d).iloc[0]
    assert float(s8["s80_s20"]) == 1.0   # 2 vs 2 equal customers
    d2 = str(tmp_path / "onepct")
    os.makedirs(d2)
    pq.write_table(pa.table({
        "o_custkey": pa.array(list(range(1, 11)), type=pa.int64()),
        "o_totalprice": pa.array([1.0] * 9 + [10000.0])}),
        os.path.join(d2, "orders.parquet"))
    pm2 = q_palma_ratio_revenue(d2).iloc[0]
    assert float(pm2["palma"]) > 1000
    pi2 = q_pietra_index_revenue(d2).iloc[0]
    assert 0.85 < float(pi2["pietra"]) < 1.0
