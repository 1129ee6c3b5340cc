"""Benchmark driver for the prclz_ray engine.

Default mode: ray.init(address="local", num_cpus=$RAY_GRAFT_CPUS or 32),
run the headline pipelines over $GRAFT_SF_DIR (default /root/testdata/sf0.1)
plus the flagship spatial-join + tile-assignment workload over a
deterministic synthetic pages corpus ($GRAFT_BENCH_PAGES rows, default
200_000, materialized once to /tmp), and print ONE JSON line:

  {"metric": ..., "value": total_sec, "unit": "sec",
   "queries": {...}, "sf": ..., "num_cpus": N,
   "flagship": {"rows": n, "sec": s, "rows_per_sec": r}}

Scaling mode (BASELINE.json north rule; sandbox protocol per BASELINE.md):
  python bench.py --scaling
runs the identical flagship job in FRESH subprocesses at num_cpus=8 and
num_cpus=32 on the same materialized input and reports throughput at both
plus efficiency = (T32/T8)/4.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
N_PAGES = int(os.environ.get("GRAFT_BENCH_PAGES", "200000"))

# headline subset of the full registry (scripts/check_queries.py runs all)
BENCH_QUERIES = [
    "flagship_region_counts",
    "pip_points_nations",
    "knn_customer_supplier",
    "zonal_acctbal_nation",
    "dedup_url_latest",
    "q1_pricing_summary",
    "nation_order_totals",
    "window_user_activity",
    "exact_dedup_documents",
    "minhash_dedup_documents",
    "token_counts_by_lang",
    "ann_topk_cosine",
    # round-3 additions: paragraph dedup profile, sessionization, exact
    # grouped quantiles, repetition filters
    "paragraph_dedup",
    "sessionize_events",
    "acctbal_quantiles_nation",
    "repetition_stats",
    # round-3 additions: semantic (cluster-partitioned) dedup, cumulative
    # and LAG windows
    "semantic_dup_pairs",
    "running_total_user",
    "lag_user_events",
    "duplicate_spans",
    "tfidf_top_terms",
    # round-3 late batch: benchmark decontamination and distributed
    # PageRank (iterative join+groupby rounds)
    "decontaminate_ngrams",
    "pagerank_links",
    # round-3 analytics/classifier batch: NB corpus filter, bigram-LM
    # fluency scoring, cohort retention, context-window chunking
    "nb_predict_lang",
    "lm_perplexity_documents",
    "cohort_retention",
    "chunk_documents",
    # TPC-H multi-join demos
    "q3_shipping_priority",
    "q5_local_supplier_volume",
    # round-3 third session: record linkage (deletion-variant blocking +
    # components), exact-Jaccard prefix-filter join, clickstream paths,
    # JL projection
    "fuzzy_entity_clusters",
    "jaccard_threshold_pairs",
    "user_event_paths",
    "embedding_projection",
    # round-4 additions: fused-bucket TPC-H (Q13 join-free histogram,
    # Q14 promo share, Q18 combiner+HAVING), HITS, deterministic LPA
    "q13_customer_distribution",
    "q14_promo_revenue",
    "q18_large_orders",
    "hits_links",
    "label_propagation_links",
    # round-4 second batch: frontier BSP graph ops + exact dyadic EWMA
    "bfs_hops_links",
    "sssp_links",
    "ewma_user_value",
    # round-4 session B: bounded k-core peel, pivot-kept clustering
    # coefficient, RRF hybrid retrieval, sentence segmentation stats
    "k_core_links",
    "local_clustering_links",
    "rrf_fusion_search",
    "sentence_stats_by_lang",
    # round-4 session C: interval sweep, co-purchase pair kernel,
    # survival analysis, behavioral entropy
    "open_orders_per_day",
    "part_copurchase_pairs",
    "kaplan_meier_retention",
    "event_entropy_user",
    # round-4 session D: SCD2 dimension build, PMI collocations,
    # common-neighbor link prediction, daily OHLC candles
    "scd2_user_type",
    "pmi_unigram_collocations",
    "link_prediction_cn",
    "ohlc_daily_value",
    # round-4 session E: interval sweep join, donut PIP (interior-ring
    # path), z-order file skipping, Merkle replica diff, skip-gram
    # window co-occurrence, personalized PageRank
    "interval_overlap_degree",
    "pip_donut_nations",
    "zorder_pruned_scan",
    "merkle_replica_diff",
    "window_cooccurrence",
    "personalized_pagerank",
    # round-4 session F: co-clustered zero-shuffle merge join, exact-twin
    # count-min sketch, integer bootstrap CI, source-pair cosine Gram,
    # golden-record survivorship, temporal reachability
    "cluster_merge_join",
    "countmin_word_freq",
    "bootstrap_ci_daily_revenue",
    "source_cosine_similarity",
    "golden_record_entities",
    "temporal_reachability_links",
    # round-4K representatives (one per new family)
    "lsh_param_planner",
    "viewshed_grid",
    "energy_distance_value",
    "join_discovery_scan",
    "second_price_auction_parts",
    "croston_forecast_parts",
    "shapley_attribution",
    # round-4N representatives: bucketed-join reserving triangle,
    # heavy-tie rank statistics, per-rank Weibull plot regression
    "bornhuetter_ferguson",
    "brunner_munzel_value",
    "weibull_mrr_latency",
    # round-5 representatives: basket rules (pair kernel + rule
    # metrics), two-sample ECDF gap, format-roundtrip geometry parity
    "association_rules_parts",
    "ks_two_sample_value",
    "shapefile_source_stats",
]


def _init(num_cpus: int) -> None:
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    import logging
    # harmless Ray-internal "Failed to hash the schemas" noise on mixed
    # arrow/pandas block schemas (ray-project/ray transform_pyarrow.py:181)
    logging.getLogger(
        "ray.data._internal.arrow_ops.transform_pyarrow").setLevel(
        logging.ERROR)
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # scaling-protocol experiment knobs (BASELINE.md): operator resource
    # reservation keeps CPUs parked on trailing all-to-all ops
    rr = os.environ.get("GRAFT_RESERVATION_RATIO")
    if rr is not None:
        if float(rr) <= 0:
            ctx.op_resource_reservation_enabled = False
        else:
            ctx.op_resource_reservation_ratio = float(rr)


def _consume(res) -> int:
    """Force execution; return row count without pulling rows to driver."""
    import pandas as pd
    import pyarrow as pa
    if isinstance(res, (pd.DataFrame, pa.Table)):
        return len(res)
    return res.count()


BODY_PARAS = int(os.environ.get("GRAFT_BENCH_BODY_PARAS", "10"))


def pages_path(n: int = N_PAGES, body_paras: int = BODY_PARAS) -> str:
    """Materialize the deterministic pages corpus once (shared across runs
    and CPU counts so scaling compares identical input). body_paras=10
    ≈ 8 KB of html per page — Common-Crawl-like page weight."""
    path = f"/tmp/prclz_ray_bench/pages_{n}_p{body_paras}"
    done = os.path.join(path, "_DONE")
    if not os.path.exists(done):
        from prclz_ray.io import synth
        # row groups sized to ~45 MB decoded: tiny groups cripple the Ray
        # parquet read (per-group decode overhead), huge groups cause
        # hundreds of MB of transient allocation per read task (kernel
        # page-zeroing dominates wall time at high concurrency)
        row_bytes = 600 + 1080 * body_paras
        rg = max(4096, min(262144, (45 << 20) // row_bytes))
        # many small-ish files: with read→map fusion the task granularity
        # IS the file, so file count must comfortably exceed total cores
        nfiles = max(32, min(512, n // max(1, rg)))
        synth.pages_dataset(n, parallelism=nfiles, body_paras=body_paras) \
            .map_batches(lambda t: t.combine_chunks(),
                         batch_format="pyarrow") \
            .write_parquet(path, row_group_size=rg)
        with open(done, "w") as f:
            f.write(str(n))
    return path


def run_flagship_bench(n: int = N_PAGES) -> dict:
    """The BASELINE.json metric workload: read pages parquet → parse
    (html dropped immediately) → url dedup (latest warc_ts)
    → S2 cell assign → PIP join vs regions → per-region counts."""
    import ray.data as rd
    from prclz_ray.io import synth
    from prclz_ray.pipelines.flagship import flagship_region_counts_streaming

    path = pages_path(n)
    t0 = time.time()
    pages = rd.read_parquet(path, columns=["url", "warc_ts", "html"])
    counts = flagship_region_counts_streaming(pages, synth.regions_table())
    dt = time.time() - t0
    n_out = int(counts["n_pages"].sum())
    return {"rows": n, "rows_out": n_out, "sec": round(dt, 3),
            "rows_per_sec": round(n / dt, 1)}


def _host_spin_ratio() -> float:
    """32-proc vs 1-proc spin wall ratio (scripts/hostprobe.py): ~1.0 on
    an idle host, >>1 under co-tenant contention.  Embedded in the bench
    JSON so each recorded run carries its own noise context (BASELINE.md
    documents 26.8k→42.0k rows/s swings on byte-identical binaries)."""
    try:
        sys.path.insert(0, os.path.join(REPO, "scripts"))
        from hostprobe import ratio
        return round(ratio(), 3)
    except Exception:
        return -1.0


def main() -> None:
    probe = _host_spin_ratio()
    _init(NUM_CPUS)
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    timings: dict[str, float] = {}
    for name in BENCH_QUERIES:
        t0 = time.time()
        _consume(qs[name](SF_DIR))
        timings[name] = round(time.time() - t0, 3)

    flagship = run_flagship_bench()
    total = round(sum(timings.values()) + flagship["sec"], 3)
    # cross-round comparability: rounds 1-2 benched the first 12 queries;
    # report that subtotal alongside the grown headline set
    legacy = round(sum(timings[q] for q in BENCH_QUERIES[:12])
                   + flagship["sec"], 3)
    sf = SF_DIR.rstrip("/").rsplit("sf", 1)[-1]
    try:
        sf = float(sf)
    except ValueError:
        pass
    print(json.dumps({
        "metric": "spatial-join + tile-assignment throughput (rows/sec)",
        "value": total, "unit": "sec", "queries": timings,
        "legacy_12q_total": legacy,
        "sf": sf, "num_cpus": NUM_CPUS, "flagship": flagship,
        "host_spin_ratio": probe,
    }))
    import ray
    ray.shutdown()


def worker(num_cpus: int, n: int) -> None:
    """Fresh-process scaling probe: flagship only, at the given CPU count.
    A small warmup run spawns the Ray worker processes first so the timed
    run measures steady-state throughput, not process cold-start."""
    import ray.data as rd

    from prclz_ray.io import synth
    from prclz_ray.pipelines.flagship import flagship_region_counts_streaming

    _init(num_cpus)
    path = pages_path(n)
    warm = rd.read_parquet(path, columns=["url", "warc_ts", "html"]) \
        .limit(8192).repartition(num_cpus)
    flagship_region_counts_streaming(warm, synth.regions_table())

    res = run_flagship_bench(n)
    res["num_cpus"] = num_cpus
    print("WORKER_RESULT " + json.dumps(res))
    import ray
    ray.shutdown()


# 4M pages: large enough that fixed per-execution costs (session init,
# materialize pause, final combine) amortize to <2% of the 32-CPU wall —
# the measured efficiency sweet spot (2M: 0.66, 4M: 0.71, 8M: 0.68 on the
# 2026-08-17 campaign; see BASELINE.md)
N_SCALING_PAGES = int(os.environ.get("GRAFT_SCALING_PAGES", "4000000"))


def scaling(n: int = N_SCALING_PAGES,
            low: int = int(os.environ.get("GRAFT_SCALING_LOW", "8")),
            high: int = int(os.environ.get("GRAFT_SCALING_HIGH", "32"))
            ) -> None:
    # materialize input once (own short-lived ray session), then probe both
    # CPU counts in fresh processes
    _init(low)
    pages_path(n)
    import ray
    ray.shutdown()

    # GRAFT_SCALING_REPS > 1 runs the legs ALTERNATING (low, high, low,
    # high, ...) and scores each leg by its best rep: paired ordering
    # keeps both legs sampling the same contention window, and best-of-N
    # rejects the reps a co-tenant burst landed on.  Every rep is
    # reported — nothing is discarded silently.
    reps = int(os.environ.get("GRAFT_SCALING_REPS", "1"))
    results = {low: [], high: []}
    for _ in range(reps):
        for cpus in (low, high):
            probe = _host_spin_ratio()
            env = dict(os.environ, RAY_GRAFT_CPUS=str(cpus))
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--_worker",
                 str(cpus), str(n)],
                capture_output=True, text=True, env=env, check=True)
            line = [l for l in out.stdout.splitlines()
                    if l.startswith("WORKER_RESULT ")][-1]
            r = json.loads(line[len("WORKER_RESULT "):])
            r["host_spin_ratio"] = probe
            results[cpus].append(r)

    best_low = max(results[low], key=lambda r: r["rows_per_sec"])
    best_high = max(results[high], key=lambda r: r["rows_per_sec"])
    t_low = best_low["rows_per_sec"]
    t_high = best_high["rows_per_sec"]
    eff = (t_high / t_low) / (high / low)
    print(json.dumps({
        "metric": "scaling efficiency (flagship rows/sec, "
                  f"num_cpus {low} -> {high})",
        "value": round(eff, 3), "unit": "efficiency",
        "rows": n, "reps": reps,
        "low": {"num_cpus": low, "rows_per_sec": t_low,
                "sec": best_low["sec"],
                "all_reps": [r["rows_per_sec"] for r in results[low]]},
        "high": {"num_cpus": high, "rows_per_sec": t_high,
                 "sec": best_high["sec"],
                 "all_reps": [r["rows_per_sec"]
                              for r in results[high]]},
    }))


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--scaling":
        scaling()
    elif len(sys.argv) > 1 and sys.argv[1] == "--_worker":
        worker(int(sys.argv[2]), int(sys.argv[3]))
    else:
        main()
