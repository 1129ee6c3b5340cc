"""Round-5 operator fixtures: the scale-test triple completion
(Bartlett normal-theory, Fligner-Killeen normal-scores rank) and the
Theta-method forecast.  Fixture style follows test_round4n_ops: tiny
hand-built parquet tables with exactly-derivable statistics."""
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def _customer_table(d, nations, balances):
    pq.write_table(pa.table({
        "c_custkey": pa.array(list(range(len(nations))),
                              type=pa.int64()),
        "c_nationkey": pa.array(nations, type=pa.int64()),
        "c_acctbal": pa.array(balances, type=pa.float64())}),
        os.path.join(d, "customer.parquet"))


def _orders_table(d, dates_prices):
    pq.write_table(pa.table({
        "o_orderkey": pa.array(list(range(len(dates_prices))),
                               type=pa.int64()),
        "o_orderdate": pa.array(
            [np.datetime64(m + "T00:00:00", "us")
             for m, _ in dates_prices]),
        "o_totalprice": pa.array([v for _, v in dates_prices])}),
        os.path.join(d, "orders.parquet"))


def test_bartlett_equal_variances_zero(tmp_path):
    """Two nations with IDENTICAL value multisets (shifted location):
    group variances equal, so every ln sᵢ² equals ln Sp² and the χ²
    numerator cancels exactly — chi2 = 0.  A location shift alone
    cannot trigger the scale test."""
    from prclz_ray.pipelines.queries import q_bartlett_nations
    d = str(tmp_path)
    _customer_table(d, [0] * 4 + [1] * 4,
                    [0.0, 10.0, 20.0, 30.0,
                     100.0, 110.0, 120.0, 130.0])
    out = q_bartlett_nations(d).iloc[0]
    assert int(out["k_groups"]) == 2
    assert float(out["bartlett_chi2"]) == 0.0
    assert float(out["correction_c"]) > 1.0


def test_bartlett_unequal_variances_positive(tmp_path):
    """One tight nation vs one 100x-spread nation: chi2 far from 0."""
    from prclz_ray.pipelines.queries import q_bartlett_nations
    d = str(tmp_path)
    _customer_table(d, [0] * 4 + [1] * 4,
                    [0.0, 1.0, 2.0, 3.0,
                     0.0, 100.0, 200.0, 300.0])
    out = q_bartlett_nations(d).iloc[0]
    assert float(out["bartlett_chi2"]) > 10.0


def test_fligner_killeen_identical_groups_zero(tmp_path):
    """Identical deviation multisets in both nations: the per-group
    mean normal scores coincide with the pooled mean, so X2 = 0."""
    from prclz_ray.pipelines.queries import q_fligner_killeen_nations
    d = str(tmp_path)
    _customer_table(d, [0] * 5 + [1] * 5,
                    [0.0, 10.0, 20.0, 30.0, 40.0,
                     500.0, 510.0, 520.0, 530.0, 540.0])
    out = q_fligner_killeen_nations(d).iloc[0]
    assert int(out["k_groups"]) == 2
    assert abs(float(out["fk_x2"])) < 1e-9


def test_fligner_killeen_scale_shift_detected(tmp_path):
    """A pure 50x scale difference (medians both inside their groups):
    FK must light up while staying finite; and the all-tied guard
    reports NULL."""
    import pandas as pd

    from prclz_ray.pipelines.queries import q_fligner_killeen_nations
    d = str(tmp_path / "a")
    os.makedirs(d)
    _customer_table(d, [0] * 6 + [1] * 6,
                    [0.0, 1.0, 2.0, 3.0, 4.0, 5.0,
                     0.0, 50.0, 100.0, 150.0, 200.0, 250.0])
    out = q_fligner_killeen_nations(d).iloc[0]
    assert float(out["fk_x2"]) > 2.0

    # all-tied data: every score identical, so the numerator is 0 —
    # fk_x2 is exactly 0.0 (or NULL if the quantized V2 hits <= 0;
    # both engines share the same mirrored chain either way)
    d2 = str(tmp_path / "tied")
    os.makedirs(d2)
    _customer_table(d2, [0] * 3 + [1] * 3, [5.0] * 6)
    out2 = q_fligner_killeen_nations(d2).iloc[0]
    assert pd.isna(out2["fk_x2"]) or float(out2["fk_x2"]) == 0.0


def test_theta_forecast_linear_ramp(tmp_path):
    """Revenue rising exactly 100 cents/day over 8 days: the OLS slope
    is exactly 100; SES(alpha=1/2) lags the last value by a computable
    dyadic amount; the h-step forecasts step by b/2 = 50 cents."""
    from prclz_ray.pipelines.queries import q_theta_forecast_revenue
    d = str(tmp_path)
    _orders_table(d, [(f"1995-01-{i + 1:02d}", 1.0 * (i + 1))
                      for i in range(8)])
    out = q_theta_forecast_revenue(d).iloc[0]
    assert int(out["n_days"]) == 8
    assert float(out["slope_cents_per_day"]) == 100.0
    # SES level of 100..800: l = sum y_j w_j; exact dyadic value
    w = np.where(np.arange(8) == 0, 0.5 ** 7,
                 0.5 ** (8 - np.arange(8)))
    exp_l = float((np.arange(1, 9) * 100.0 * w).sum())
    assert abs(float(out["ses_level_cents"]) - exp_l) < 1e-6
    assert abs(float(out["f4"]) - float(out["f1"]) - 150.0) < 1e-6
    assert float(out["f7"]) > float(out["f1"])


def _lineitem_table(d, orders_parts):
    pq.write_table(pa.table({
        "l_orderkey": pa.array([o for o, _ in orders_parts],
                               type=pa.int64()),
        "l_partkey": pa.array([p for _, p in orders_parts],
                              type=pa.int64()),
        "l_linenumber": pa.array(
            list(range(1, len(orders_parts) + 1)), type=pa.int64())}),
        os.path.join(d, "lineitem.parquet"))


def _events_table(d, rows):
    """rows: list of (user_id, ts_iso, event_type, value)."""
    pq.write_table(pa.table({
        "event_id": pa.array(list(range(len(rows))), type=pa.int64()),
        "ts": pa.array([np.datetime64(t + "T00:00:00", "us")
                        for _, t, _, _ in rows]),
        "user_id": pa.array([u for u, _, _, _ in rows],
                            type=pa.int64()),
        "event_type": pa.array([e for _, _, e, _ in rows]),
        "value": pa.array([v for _, _, _, v in rows],
                          type=pa.float64())}),
        os.path.join(d, "events.parquet"))


def test_association_rules_perfect_confidence(tmp_path):
    """Part 2 appears ONLY alongside part 1 (3 baskets of {1,2}),
    part 1 also appears alone (2 baskets): rule 2→1 has confidence
    exactly 1 and lift = n_orders/n_1 = 6/5; rule 1→2 has confidence
    3/5."""
    from prclz_ray.pipelines.queries import q_association_rules_parts
    d = str(tmp_path)
    baskets = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2),
               (4, 1), (5, 1), (6, 99)]
    _lineitem_table(d, baskets)
    out = q_association_rules_parts(d)
    r21 = out[(out.antecedent == 2) & (out.consequent == 1)].iloc[0]
    assert float(r21["confidence"]) == 1.0
    assert float(r21["lift"]) == round(6 / 5, 6)
    r12 = out[(out.antecedent == 1) & (out.consequent == 2)].iloc[0]
    assert float(r12["confidence"]) == 0.6


def test_association_rules_pair_counts_are_uncapped(tmp_path, monkeypatch):
    """The rules are exact only if no basket is truncated: the pair
    kernel must run with its per-key value cap disabled."""
    from prclz_ray.pipelines.queries import q_association_rules_parts
    from prclz_ray.stages import relational

    seen = []
    real = relational.cooccurrence_pairs

    def spy(*a, **k):
        seen.append(k.get("max_vals_per_key", "default"))
        return real(*a, **k)

    monkeypatch.setattr(relational, "cooccurrence_pairs", spy)
    d = str(tmp_path)
    _lineitem_table(d, [(1, 1), (1, 2), (2, 1), (2, 2)])
    q_association_rules_parts(d)
    assert seen == [None]


def test_mann_whitney_separated_and_identical(tmp_path):
    """Clicks all strictly below purchases: U_click = 0 (no purchase
    precedes any click... i.e. every comparison favors purchase), z
    strongly negative.  Identical value multisets: U = n1·n2/2
    exactly and z = 0."""
    from prclz_ray.pipelines.queries import q_mann_whitney_value
    d = str(tmp_path / "sep")
    os.makedirs(d)
    rows = [(1, "1995-01-01", "click", float(v))
            for v in (1, 2, 3, 4, 5)] + \
           [(1, "1995-01-01", "purchase", float(v))
            for v in (10, 11, 12, 13, 14)]
    _events_table(d, rows)
    out = q_mann_whitney_value(d).iloc[0]
    assert float(out["u_click"]) == 0.0
    assert float(out["z"]) < -2.0

    d2 = str(tmp_path / "same")
    os.makedirs(d2)
    rows2 = [(1, "1995-01-01", "click", float(v))
             for v in (1, 2, 3)] + \
            [(1, "1995-01-01", "purchase", float(v))
             for v in (1, 2, 3)]
    _events_table(d2, rows2)
    out2 = q_mann_whitney_value(d2).iloc[0]
    assert float(out2["u_click"]) == 4.5      # n1 n2 / 2
    assert float(out2["z"]) == 0.0


def test_markov_stationary_two_state_cycle(tmp_path):
    """One user alternating a→b→a→b…: P is the swap matrix, and an
    EVEN number of power iterations returns the uniform start, odd
    swaps it — from uniform both give exactly (0.5, 0.5), the true
    stationary vector."""
    from prclz_ray.pipelines.queries import q_markov_stationary_events
    d = str(tmp_path)
    rows = []
    for i in range(10):
        rows.append((1, f"1995-01-{i + 1:02d}",
                     "a" if i % 2 == 0 else "b", 1.0))
    _events_table(d, rows)
    out = q_markov_stationary_events(d)
    assert list(out["state"]) == ["a", "b"]
    assert list(out["pi3"]) == [0.5, 0.5]


def test_ks_two_sample_exact_separation(tmp_path):
    """Disjoint supports: at the boundary F_click = 1, F_purchase = 0,
    so D = 1 exactly (numerator = n1*n2).  Identical multisets: D = 0."""
    from prclz_ray.pipelines.queries import q_ks_two_sample_value
    d = str(tmp_path / "sep")
    os.makedirs(d)
    rows = [(1, "1995-01-01", "click", float(v)) for v in (1, 2, 3)] \
        + [(1, "1995-01-01", "purchase", float(v))
           for v in (10, 11, 12, 13)]
    _events_table(d, rows)
    out = q_ks_two_sample_value(d).iloc[0]
    assert int(out["d_numerator"]) == 12       # n1*n2
    assert float(out["ks_d"]) == 1.0

    d2 = str(tmp_path / "same")
    os.makedirs(d2)
    rows2 = [(1, "1995-01-01", g, float(v))
             for g in ("click", "purchase") for v in (1, 2, 3)]
    _events_table(d2, rows2)
    out2 = q_ks_two_sample_value(d2).iloc[0]
    assert float(out2["ks_d"]) == 0.0


def test_tukey_hsd_one_shifted_nation(tmp_path):
    """Three nations, two identical and one shifted by a constant:
    the two pairs involving the shifted nation share the same q (equal
    n and equal mean gap), the identical pair has q = 0 — and the
    shifted pairs rank first."""
    from prclz_ray.pipelines.queries import q_tukey_hsd_nations
    d = str(tmp_path)
    _customer_table(d, [0] * 4 + [1] * 4 + [2] * 4,
                    [0.0, 1.0, 2.0, 3.0,
                     0.0, 1.0, 2.0, 3.0,
                     100.0, 101.0, 102.0, 103.0])
    out = q_tukey_hsd_nations(d)
    top2 = out.head(2)
    assert set(map(tuple, top2[["nation_a", "nation_b"]]
                   .to_numpy())) == {(0, 2), (1, 2)}
    assert float(top2["q_stat"].iloc[0]) \
        == float(top2["q_stat"].iloc[1])
    z = out[(out.nation_a == 0) & (out.nation_b == 1)]
    assert float(z["q_stat"].iloc[0]) == 0.0


def test_divergence_panel_extremes(tmp_path):
    """Identical histograms: TV = JSD = 0 and Hellinger = 0.  Widely
    disjoint supports (separate bins): TV = 1, Hellinger = 1,
    JSD = ln 2."""
    import math

    from prclz_ray.pipelines.queries import q_divergence_panel_value
    d = str(tmp_path / "same")
    os.makedirs(d)
    rows = [(1, "1995-01-01", g, float(v))
            for g in ("click", "purchase") for v in (1, 2, 3, 4)]
    _events_table(d, rows)
    out = q_divergence_panel_value(d).iloc[0]
    assert float(out["total_variation"]) == 0.0
    assert float(out["hellinger"]) == 0.0
    assert float(out["jsd_nats"]) == 0.0

    d2 = str(tmp_path / "disj")
    os.makedirs(d2)
    rows2 = [(1, "1995-01-01", "click", 1.0),
             (1, "1995-01-01", "purchase", 1000.0)]
    _events_table(d2, rows2)
    out2 = q_divergence_panel_value(d2).iloc[0]
    assert float(out2["total_variation"]) == 1.0
    assert float(out2["hellinger"]) == 1.0
    assert abs(float(out2["jsd_nats"]) - math.log(2.0)) < 1e-6


def _customer_seg_table(d, nations, segments):
    pq.write_table(pa.table({
        "c_custkey": pa.array(list(range(len(nations))),
                              type=pa.int64()),
        "c_nationkey": pa.array(nations, type=pa.int64()),
        "c_mktsegment": pa.array(segments)}),
        os.path.join(d, "customer.parquet"))


def test_g_test_independent_and_dependent(tmp_path):
    """A product table (every nation has the same segment mix):
    O = E in every cell so G = 0 exactly.  A diagonal table (each
    nation locked to its own segment): G = 2·N·ln(k) for k nations
    of equal size — pinned from the closed form."""
    import math

    from prclz_ray.pipelines.queries import q_g_test_nation_segment
    d = str(tmp_path / "ind")
    os.makedirs(d)
    nations, segs = [], []
    for nk in (0, 1):
        for sg in ("A", "B"):
            for _ in range(3):
                nations.append(nk)
                segs.append(sg)
    _customer_seg_table(d, nations, segs)
    out = q_g_test_nation_segment(d).iloc[0]
    assert float(out["g_stat"]) == 0.0
    assert int(out["dof"]) == 1

    d2 = str(tmp_path / "diag")
    os.makedirs(d2)
    _customer_seg_table(d2, [0] * 4 + [1] * 4,
                        ["A"] * 4 + ["B"] * 4)
    out2 = q_g_test_nation_segment(d2).iloc[0]
    assert abs(float(out2["g_stat"]) - 2 * 8 * math.log(2)) < 1e-6


def test_beta_binomial_shrinkage_pulls_small_samples(tmp_path):
    """A 1/1 user (raw rate 1.0) must rank BELOW a 90/100 user after
    shrinkage toward the corpus prior — the whole point of EB."""
    from prclz_ray.pipelines.queries import (
        q_beta_binomial_shrinkage_users)
    d = str(tmp_path)
    rows = []
    # 20 background users with ~30% purchase rate over 10 events
    for u in range(20):
        for i in range(10):
            rows.append((u, "1995-01-01",
                         "purchase" if i < 3 + (u % 3) else "click",
                         1.0))
    # the fluke: 1 event, 1 purchase
    rows.append((100, "1995-01-01", "purchase", 1.0))
    # the real signal: 90 purchases in 100 events
    for i in range(100):
        rows.append((200, "1995-01-01",
                     "purchase" if i < 90 else "click", 1.0))
    _events_table(d, rows)
    out = q_beta_binomial_shrinkage_users(d)
    assert float(out["alpha"].iloc[0]) > 0
    top = int(out["user_id"].iloc[0])
    assert top == 200
    fluke = out[out["user_id"] == 100]
    if len(fluke):
        assert float(fluke["shrunk_rate"].iloc[0]) \
            < float(out[out["user_id"] == 200]
                    ["shrunk_rate"].iloc[0])


def test_huber_location_resists_outlier(tmp_path):
    """A cluster at ~100 dollars plus one 100000-dollar outlier: the
    mean flies to ~4k, the Huber estimate stays inside the cluster's
    span (the 1.345-MAD psi caps the outlier's pull)."""
    from prclz_ray.pipelines.queries import q_huber_location_acctbal
    d = str(tmp_path)
    vals = [98.0, 99.0, 100.0, 100.0, 101.0, 102.0, 99.5, 100.5,
            101.5, 98.5, 99.25, 100.75, 97.0, 103.0, 96.5, 103.5,
            95.0, 105.0, 94.0, 106.0, 93.0, 107.0, 92.0, 108.0,
            100000.0]
    _customer_table(d, [0] * len(vals), vals)
    out = q_huber_location_acctbal(d).iloc[0]
    mu = float(out["huber_mu_cents"]) / 100.0
    assert 92.0 < mu < 120.0
    assert int(out["median_cents"]) == 10000

    # majority-tied guard: MAD = 0 reports the median itself
    d2 = str(tmp_path / "tied")
    os.makedirs(d2)
    _customer_table(d2, [0] * 5, [7.0] * 4 + [9.0])
    out2 = q_huber_location_acctbal(d2).iloc[0]
    assert int(out2["mad_cents"]) == 0
    assert float(out2["huber_mu_cents"]) == 700.0


def test_yule_walker_exact_ar_signatures(tmp_path):
    """A period-2 alternating series has rho1 ≈ −1, and the AR(2)
    fit pins phi close to the (rho1, rho2) = (−1, 1) pole; a linear
    ramp has rho1 near 1 with phi1 + phi2 ≈ 1."""
    from prclz_ray.pipelines.queries import q_yule_walker_ar2_revenue
    d = str(tmp_path / "alt")
    os.makedirs(d)
    _orders_table(d, [(f"1995-01-{i + 1:02d}",
                       10.0 if i % 2 == 0 else 20.0)
                      for i in range(20)])
    out = q_yule_walker_ar2_revenue(d).iloc[0]
    assert float(out["rho1"]) < -0.8
    assert float(out["rho2"]) > 0.6

    d2 = str(tmp_path / "ramp")
    os.makedirs(d2)
    _orders_table(d2, [(f"1995-01-{i + 1:02d}", 1.0 * (i + 1))
                       for i in range(20)])
    out2 = q_yule_walker_ar2_revenue(d2).iloc[0]
    assert float(out2["rho1"]) > 0.7

    # constant series: c0 = 0 → NULLs by stated convention
    import pandas as pd
    d3 = str(tmp_path / "const")
    os.makedirs(d3)
    _orders_table(d3, [(f"1995-01-{i + 1:02d}", 5.0)
                       for i in range(10)])
    out3 = q_yule_walker_ar2_revenue(d3).iloc[0]
    assert pd.isna(out3["rho1"])


def test_point_biserial_signatures(tmp_path):
    """F-orders all above O-orders by a constant: r_pb positive and
    large; identical distributions: r_pb = 0 exactly."""
    import pyarrow.parquet as pq_

    from prclz_ray.pipelines.queries import (
        q_point_biserial_status_price)

    def orders_status(d, statuses, prices):
        pq_.write_table(pa.table({
            "o_orderkey": pa.array(list(range(len(statuses))),
                                   type=pa.int64()),
            "o_orderstatus": pa.array(statuses),
            "o_totalprice": pa.array(prices)}),
            os.path.join(d, "orders.parquet"))

    d = str(tmp_path / "sep")
    os.makedirs(d)
    orders_status(d, ["F"] * 5 + ["O"] * 5,
                  [100.0, 110.0, 120.0, 130.0, 140.0,
                   10.0, 20.0, 30.0, 40.0, 50.0])
    out = q_point_biserial_status_price(d).iloc[0]
    assert float(out["r_pb"]) > 0.8

    d2 = str(tmp_path / "same")
    os.makedirs(d2)
    orders_status(d2, ["F"] * 3 + ["O"] * 3,
                  [10.0, 20.0, 30.0, 10.0, 20.0, 30.0])
    out2 = q_point_biserial_status_price(d2).iloc[0]
    assert float(out2["r_pb"]) == 0.0


def test_eigenvector_centrality_star(tmp_path):
    """On the synthetic 3-out-link topology over a small doc set the
    scores are a probability vector (sum 1 within round-9 noise) and
    strictly positive mass lands only on linked-to nodes."""
    import pyarrow.parquet as pq_

    from prclz_ray.pipelines.queries import (
        q_eigenvector_centrality_links)
    d = str(tmp_path)
    pq_.write_table(pa.table({
        "doc_id": pa.array(list(range(30)), type=pa.int64())}),
        os.path.join(d, "documents.parquet"))
    out = q_eigenvector_centrality_links(d)
    assert len(out) == 20
    assert (out["eigencentrality"] >= 0).all()
    assert float(out["eigencentrality"].iloc[0]) > 1.0 / 30


def test_cumulative_incidence_partition(tmp_path):
    """Two users: one purchases on day 2, one errors on day 3 (both
    entered day 0).  CIF_purchase jumps to 1/2 at t=2 (S(t−)=1,
    d/r = 1/2); CIF_error reaches 1/2·1 at t=3 (S(3−)=1/2, d/r=1/1)
    — and the two CIFs sum to 1 when everyone fails."""
    from prclz_ray.pipelines.queries import (
        q_cumulative_incidence_events)
    d = str(tmp_path)
    rows = [(1, "1995-01-01", "view", 1.0),
            (1, "1995-01-03", "purchase", 1.0),
            (2, "1995-01-01", "view", 1.0),
            (2, "1995-01-04", "error", 1.0)]
    _events_table(d, rows)
    out = q_cumulative_incidence_events(d)
    assert list(out["t_days"]) == [2, 3]
    assert float(out.loc[0, "cif_purchase"]) == 0.5
    assert float(out.loc[0, "cif_error"]) == 0.0
    assert float(out.loc[1, "cif_error"]) == 0.5
    assert float(out.loc[1, "cif_purchase"]) == 0.5


def test_mcf_recurrent_simple(tmp_path):
    """Two users fully observed over [0, 4]; purchases at days 1, 2
    (user 1) and day 2 (user 2): MCF steps 1/2 then 1/2 + 2/2 = 1.5
    with both users at risk throughout."""
    from prclz_ray.pipelines.queries import q_mcf_recurrent_purchases
    d = str(tmp_path)
    rows = [(1, "1995-01-01", "view", 1.0),
            (1, "1995-01-02", "purchase", 1.0),
            (1, "1995-01-03", "purchase", 1.0),
            (1, "1995-01-05", "view", 1.0),
            (2, "1995-01-01", "view", 1.0),
            (2, "1995-01-03", "purchase", 1.0),
            (2, "1995-01-05", "view", 1.0)]
    _events_table(d, rows)
    out = q_mcf_recurrent_purchases(d)
    assert list(out["t_days"]) == [1, 2]
    assert float(out.loc[0, "mcf"]) == 0.5
    assert float(out.loc[1, "mcf"]) == 1.5
    assert list(out["at_risk"]) == [2, 2]


def test_fowlkes_mallows_bounds(tmp_path):
    """FM over the memoized LangId confusion on real sf0.001 data
    sits in (0, 1] and equals 1 iff the clustering is perfect — the
    langid classifier is good but imperfect, so strictly inside."""
    from prclz_ray.pipelines.queries import q_fowlkes_mallows_langid
    out = q_fowlkes_mallows_langid("/root/testdata/sf0.001").iloc[0]
    fm = float(out["fowlkes_mallows"])
    assert 0.0 < fm <= 1.0
    assert int(out["pairs_both"]) <= int(out["pairs_true"])
    assert int(out["pairs_both"]) <= int(out["pairs_pred"])


def _lineitem_qty_table(d, rows):
    """rows: list of (orderkey, linenumber, quantity, price)."""
    pq.write_table(pa.table({
        "l_orderkey": pa.array([r[0] for r in rows], type=pa.int64()),
        "l_linenumber": pa.array([r[1] for r in rows],
                                 type=pa.int64()),
        "l_quantity": pa.array([float(r[2]) for r in rows]),
        "l_extendedprice": pa.array([float(r[3]) for r in rows])}),
        os.path.join(d, "lineitem.parquet"))


def test_horvitz_thompson_unbiased_shape(tmp_path):
    """With every row forced into the sample (quantity 100 ⇒ π = 1
    under h % 1000 < 10·q), HT equals the true total EXACTLY."""
    from prclz_ray.pipelines.queries import q_horvitz_thompson_lineitem
    d = str(tmp_path)
    _lineitem_qty_table(d, [(i, 1, 100, 10.0 * (i + 1))
                            for i in range(20)])
    out = q_horvitz_thompson_lineitem(d).iloc[0]
    assert int(out["n_sampled"]) == 20
    assert float(out["ht_estimate_cents"]) \
        == float(out["true_total_cents"])
    assert float(out["rel_err"]) == 0.0


def test_ratio_estimator_exact_under_proportionality(tmp_path):
    """y exactly proportional to x (price = 2·quantity dollars):
    the ratio estimator reproduces the true total EXACTLY whatever
    rows the hash sample picked — the defining property; GREG
    (fitting the same line) matches it."""
    from prclz_ray.pipelines.queries import (
        q_ratio_regression_estimators)
    d = str(tmp_path)
    _lineitem_qty_table(d, [(i, 1, (i % 7) + 1, 2.0 * ((i % 7) + 1))
                            for i in range(200)])
    out = q_ratio_regression_estimators(d).iloc[0]
    assert int(out["n_sampled"]) > 0
    assert float(out["ratio_rel_err"]) == 0.0
    # GREG fits a perfect line through the same points
    assert float(out["greg_rel_err"]) < 1e-9


def _orders_epi_table(d, rows):
    """rows: list of (iso_date, priority, status)."""
    pq.write_table(pa.table({
        "o_orderkey": pa.array(list(range(len(rows))),
                               type=pa.int64()),
        "o_orderdate": pa.array(
            [np.datetime64(m + "T00:00:00", "us")
             for m, _, _ in rows]),
        "o_orderpriority": pa.array([p for _, p, _ in rows]),
        "o_orderstatus": pa.array([s for _, _, s in rows])}),
        os.path.join(d, "orders.parquet"))


def test_epi_2x2_null_and_signal(tmp_path):
    """Outcome independent of exposure (same F-rate both arms):
    OR = RR = 1 and RD = 0 exactly, CIs straddling the null.  A
    strong association pushes OR and RR far above 1."""
    from prclz_ray.pipelines.queries import q_epi_2x2_orders
    d = str(tmp_path / "null")
    os.makedirs(d)
    rows = []
    for pr in ("1-URGENT", "5-LOW"):
        for st, k in (("F", 4), ("O", 4)):
            rows += [("1995-02-01", pr, st)] * k
    _orders_epi_table(d, rows)
    out = q_epi_2x2_orders(d).iloc[0]
    assert float(out["odds_ratio"]) == 1.0
    assert float(out["relative_risk"]) == 1.0
    assert float(out["risk_diff"]) == 0.0
    assert float(out["or_lo"]) < 1.0 < float(out["or_hi"])

    d2 = str(tmp_path / "sig")
    os.makedirs(d2)
    rows2 = [("1995-02-01", "1-URGENT", "F")] * 9 \
        + [("1995-02-01", "1-URGENT", "O")] * 1 \
        + [("1995-02-01", "5-LOW", "F")] * 1 \
        + [("1995-02-01", "5-LOW", "O")] * 9
    _orders_epi_table(d2, rows2)
    out2 = q_epi_2x2_orders(d2).iloc[0]
    assert float(out2["odds_ratio"]) == 81.0
    assert float(out2["relative_risk"]) == 9.0


def test_breslow_day_homogeneous_zero(tmp_path):
    """Two years with the IDENTICAL 2×2 table: the common OR fits
    both strata perfectly, observed = expected in each, BD χ² ≈ 0."""
    from prclz_ray.pipelines.queries import q_breslow_day_orders
    d = str(tmp_path)
    rows = []
    for y in ("1994", "1995"):
        rows += [(f"{y}-02-01", "1-URGENT", "F")] * 6
        rows += [(f"{y}-02-01", "1-URGENT", "O")] * 2
        rows += [(f"{y}-02-01", "5-LOW", "F")] * 3
        rows += [(f"{y}-02-01", "5-LOW", "O")] * 5
    _orders_epi_table(d, rows)
    out = q_breslow_day_orders(d).iloc[0]
    assert int(out["k_strata"]) == 2
    assert abs(float(out["bd_chi2"])) < 1e-4
    assert abs(float(out["or_mh"]) - 5.0) < 0.01   # (6*5)/(2*3)


def test_peto_null_is_one(tmp_path):
    """Independence in every stratum: O = E, so Σ(O−E) = 0 and the
    Peto OR is exactly 1."""
    from prclz_ray.pipelines.queries import q_peto_log_odds_orders
    d = str(tmp_path)
    rows = []
    for y in ("1994", "1995"):
        for pr in ("1-URGENT", "5-LOW"):
            for st, k in (("F", 5), ("O", 5)):
                rows += [(f"{y}-02-01", pr, st)] * k
    _orders_epi_table(d, rows)
    out = q_peto_log_odds_orders(d).iloc[0]
    assert float(out["sum_o_minus_e"]) == 0.0
    assert float(out["peto_or"]) == 1.0


def test_weiszfeld_beats_centroid_with_outlier(tmp_path):
    """A tight cluster plus one far outlier: the spatial median stays
    near the cluster while the centroid is dragged out — and the
    median's total-distance objective must not exceed the
    centroid's (Weiszfeld descends the objective)."""
    from prclz_ray.pipelines.queries import q_weiszfeld_spatial_median
    # craft custkeys whose synth points cluster: px=(k*7919)%1000.
    # Rather than inverting the hash, just verify the invariants on
    # real synth points for a small keyset.
    _customer_table(str(tmp_path), [0] * 40,
                    [0.0] * 40)        # balances unused by the op
    import pyarrow.parquet as pq_
    pq_.write_table(pa.table({
        "c_custkey": pa.array(list(range(40)), type=pa.int64()),
        "c_nationkey": pa.array([0] * 40, type=pa.int64()),
        "c_acctbal": pa.array([0.0] * 40)}),
        os.path.join(str(tmp_path), "customer.parquet"))
    out = q_weiszfeld_spatial_median(str(tmp_path)).iloc[0]
    assert out["objective_median"] <= out["objective_centroid"] + 1e-6
    assert 0 <= float(out["median_x"]) <= 1000
    assert 0 <= float(out["median_y"]) <= 1000


def test_rbo_identical_and_disjoint_rankings(tmp_path):
    """Identical rankings give truncated RBO = (1−p)Σp^{d−1} =
    1 − p^k ≈ 1; reversed rankings over a large set overlap late, so
    RBO is far below."""
    import pyarrow.parquet as pq_

    from prclz_ray.pipelines.queries import q_rbo_part_rankings
    d = str(tmp_path / "same")
    os.makedirs(d)
    n = 300
    pq_.write_table(pa.table({
        "p_partkey": pa.array(list(range(n)), type=pa.int64()),
        "p_retailprice": pa.array([float(n - i) for i in range(n)]),
        "p_size": pa.array([n - i for i in range(n)],
                           type=pa.int64())}),
        os.path.join(d, "part.parquet"))
    out = q_rbo_part_rankings(d).iloc[0]
    assert abs(float(out["rbo"]) - 1.0) < 1e-6    # 1 − 2⁻¹⁰⁰

    d2 = str(tmp_path / "rev")
    os.makedirs(d2)
    pq_.write_table(pa.table({
        "p_partkey": pa.array(list(range(n)), type=pa.int64()),
        "p_retailprice": pa.array([float(n - i) for i in range(n)]),
        "p_size": pa.array([i for i in range(n)], type=pa.int64())}),
        os.path.join(d2, "part.parquet"))
    out2 = q_rbo_part_rankings(d2).iloc[0]
    assert float(out2["rbo"]) < 0.05


def test_procrustes_pure_shift_is_zero(tmp_path):
    """Even/odd custkey halves of the SAME synthetic point process
    have near-identical configurations after centering, so d² is
    small; and the statistic is bounded in [0, 1]."""
    import pyarrow.parquet as pq_

    from prclz_ray.pipelines.queries import (
        q_procrustes_nation_centers)
    d = str(tmp_path)
    n = 2000
    pq_.write_table(pa.table({
        "c_custkey": pa.array(list(range(n)), type=pa.int64()),
        "c_nationkey": pa.array([i % 25 for i in range(n)],
                                type=pa.int64()),
        "c_acctbal": pa.array([0.0] * n)}),
        os.path.join(d, "customer.parquet"))
    out = q_procrustes_nation_centers(d).iloc[0]
    assert int(out["k_nations"]) == 25
    assert 0.0 <= float(out["procrustes_d2"]) <= 1.0
