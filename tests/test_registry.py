"""Shape guards on the query registry: the name prefix the external
correctness gate checks, and the benchmark's query set."""
import ast
from pathlib import Path

from prclz_ray.pipelines.queries import registry

# the external correctness gate checks exactly these, in this order
FIRST_50 = [
    "pip_points_nations", "pip_tiled_points_nations", "pip_left_unmatched",
    "pip_semi_tiled", "pip_anti_tiled", "knn_customer_supplier",
    "zonal_acctbal_nation", "raster_grid_counts", "raster_zonal_nation",
    "flagship_region_counts", "flagship_counts_streaming",
    "dedup_url_latest", "q1_pricing_summary", "top_orders_by_revenue",
    "nation_order_totals", "bucketed_join_segment_totals",
    "bucketed_join_string_key", "orders_status_counts",
    "topk_parts_by_price", "distinct_event_types",
    "semi_customers_with_orders", "anti_customers_without_orders",
    "window_user_activity", "asof_last_purchase",
    "band_join_click_purchase", "sample_documents",
    "exact_dedup_documents", "token_counts_by_lang",
    "quality_stats_by_lang", "pii_redaction", "url_canonical_dedup",
    "paragraph_dedup", "repetition_stats", "refinery_funnel",
    "order_share_by_status", "corpus_diff", "sample_n_per_lang",
    "corpus_filter_decision", "acctbal_quantiles_nation",
    "sessionize_events", "normalize_text", "top_words",
    "approx_distinct_users", "grouped_approx_distinct", "corr_qty_price",
    "top_orders_per_priority", "semi_customers_bloom",
    "sliding_window_activity", "rare_word_stats", "ann_topk_cosine"]


def test_first_50_registry_names_pinned():
    assert list(registry())[:50] == FIRST_50


def test_bench_queries_resolve_in_registry():
    bench = Path(__file__).resolve().parent.parent / "bench.py"
    tree = ast.parse(bench.read_text())
    names = next(ast.literal_eval(n.value) for n in tree.body
                 if isinstance(n, ast.Assign)
                 and getattr(n.targets[0], "id", "") == "BENCH_QUERIES")
    missing = [n for n in names if n not in registry()]
    assert not missing, f"bench queries missing from registry: {missing}"
