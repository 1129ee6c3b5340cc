"""Shape guards on the query registry: the name prefix the external
correctness gate checks, and the benchmark's query set.  Plus source
guards on how the engine holds per-worker state, how its shuffles
co-partition, and how derived outputs are fingerprinted and committed."""
import ast
import re
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


PKG = Path(__file__).resolve().parent.parent / "prclz_ray"


def test_one_worker_state_mechanism_and_no_actor_pools():
    """Per-worker state lives in ONE cache, ``stages/util.py``'s
    ``_WORKER_STATE`` (via ``worker_cached`` / ``cached_callable``), and no
    stage runs as an actor pool.  Every other module-level dict must be a
    result memo kept by the calling process, named ``*_MEMO``."""
    actor = re.compile(r"\bconcurrency\s*=|fn_constructor_kwargs"
                       r"|ActorPoolStrategy")
    hits, dicts = [], []
    for path in sorted(PKG.rglob("*.py")):
        src = path.read_text()
        rel = path.relative_to(PKG.parent).as_posix()
        hits += [(rel, src[:m.start()].count("\n") + 1)
                 for m in actor.finditer(src)]
        for node in ast.parse(src).body:
            if isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            elif isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            else:
                continue
            empty = (isinstance(value, ast.Dict) and not value.keys) or (
                isinstance(value, ast.Call)
                and getattr(value.func, "id", "") == "dict"
                and not value.args and not value.keywords)
            dicts += [(rel, t.id) for t in targets
                      if empty and isinstance(t, ast.Name)
                      and not t.id.endswith("_MEMO")]
    assert not hits, f"actor-pool knobs in engine source: {hits}"
    assert dicts == [("prclz_ray/stages/util.py", "_WORKER_STATE")], dicts


def test_two_sided_shuffle_joins_go_through_cogroup():
    """The relational and spatial join modules co-partition two sides only
    in ``relational.cogroup``: no other top-level definition there has an
    ``align`` padder, a Dataset ``union`` or a side-flag column.  The one
    other union is ``set_op``'s, which flags distinct keys and reduces them
    through one ``bucket_shuffle``, with no per-side split.
    ``blocks.extract_blocks`` and ``reblock`` keep their own unions: on a
    mapped input (reblock's left side is a PIP join) ``cogroup`` would
    need ``with_schema`` to materialize it, an execution they do not run
    today."""
    hits, found = [], set()
    for name in ("relational.py", "joins.py"):
        for top in ast.parse((PKG / "stages" / name).read_text()).body:
            owner = getattr(top, "name", None)
            found.add(owner)
            if owner == "cogroup":
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.FunctionDef) and node.name == "align":
                    hits.append((name, owner, "def align"))
                elif (isinstance(node, ast.Call)
                      and getattr(node.func, "attr", "") == "union"
                      and owner != "set_op"):
                    hits.append((name, owner, "union"))
                elif (isinstance(node, ast.Constant)
                      and node.value in ("_side", "_bside")):
                    hits.append((name, owner, node.value))
    assert "cogroup" in found
    assert not hits, hits


# one-sided hash-bucket shuffles that stay hand-rolled, with their reasons
# (order-preserving range buckets, e.g. ``_global_prefix_scan``,
# ``length_bucket_batches`` and ``checkpoint.write_clustered``, hash no key
# and are not matched)
BUCKET_SHUFFLE_EXCEPTIONS = {
    # sort on a bucket of _h1 of the (_h1, _h2) url-hash pair (through
    # ``sort_buckets``) and dedup once per sorted block; perfbench's
    # per-layer trace wraps duplicate_url_map by module attribute and
    # matches these operators by name (MapBatches(fused), (partial))
    ("pipelines/flagship.py", "duplicate_url_map"),
    ("pipelines/flagship.py", "flagship_region_counts_streaming"),
}


def _hash_bucket_shuffles(tree):
    """``(owner, column, how)`` for every top-level definition that builds
    a column from a key hash (``stable_bucket``, ``hash_array``,
    ``hash_pandas_object`` or a ``%``, directly or through a local name)
    and runs ``groupby(<that column>).map_groups`` (``how`` is
    ``"map_groups"``) or shuffles on it with ``sort(<that column>)``
    (``"sort"``) or ``relational.sort_buckets(ds, <that column>, n)``
    (``"sort_buckets"``)."""
    hashes = {"stable_bucket", "hash_array", "hash_pandas_object"}

    def hashed(expr, names):
        for n in ast.walk(expr):
            if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mod):
                return True
            if isinstance(n, ast.Call) and getattr(
                    n.func, "attr", getattr(n.func, "id", "")) in hashes:
                return True
            if isinstance(n, ast.Name) and n.id in names:
                return True
        return False

    out = []
    for top in tree.body:
        if not isinstance(top, ast.FunctionDef):
            continue
        nodes = list(ast.walk(top))
        names: set = set()
        for node in nodes:      # names bound to a hash, in source order
            if isinstance(node, ast.Assign) and hashed(node.value, names):
                names |= {t.id for t in node.targets
                          if isinstance(t, ast.Name)}
        made, grouped = set(), {}
        for node in nodes:
            if isinstance(node, ast.Call):
                fn = getattr(node.func, "attr", getattr(node.func, "id", ""))
                if fn == "append_column" and len(node.args) == 2 \
                        and isinstance(node.args[0], ast.Constant) \
                        and hashed(node.args[1], names):
                    made.add(node.args[0].value)
                if (fn == "map_groups"
                        and isinstance(node.func.value, ast.Call)
                        and getattr(node.func.value.func, "attr", "")
                        == "groupby"
                        and node.func.value.args
                        and isinstance(node.func.value.args[0],
                                       ast.Constant)):
                    grouped[node.func.value.args[0].value] = "map_groups"
                if (fn == "sort" and node.args
                        and isinstance(node.args[0], ast.Constant)):
                    grouped[node.args[0].value] = "sort"
                if (fn == "sort_buckets" and len(node.args) > 1
                        and isinstance(node.args[1], ast.Constant)):
                    grouped[node.args[1].value] = "sort_buckets"
            elif isinstance(node, ast.Dict):
                made |= {k.value for k, v in zip(node.keys, node.values)
                         if isinstance(k, ast.Constant)
                         and hashed(v, names)}
            elif isinstance(node, ast.Assign):
                made |= {t.slice.value for t in node.targets
                         if isinstance(t, ast.Subscript)
                         and isinstance(t.slice, ast.Constant)
                         and hashed(node.value, names)}
        out += [(top.name, c, grouped[c]) for c in sorted(made & set(grouped))]
    return out


def test_one_sided_keyed_shuffles_go_through_bucket_shuffle():
    """Every one-sided shuffle that hashes a key column into coarse
    buckets and runs ``groupby(<bucket>).map_groups`` or ``sort(<bucket>)``
    does so through
    ``relational.bucket_shuffle``, which owns the tagging map, the bucket
    column and its drop.  The exceptions are listed above with their
    reasons; an exception that no longer matches must leave the list."""
    hits, used = [], set()
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        for owner, col, _ in _hash_bucket_shuffles(
                ast.parse(path.read_text())):
            if owner == "bucket_shuffle":
                continue
            if (rel, owner) in BUCKET_SHUFFLE_EXCEPTIONS:
                used.add((rel, owner))
            else:
                hits.append((rel, owner, col))
    assert not hits, hits
    assert used == BUCKET_SHUFFLE_EXCEPTIONS, \
        BUCKET_SHUFFLE_EXCEPTIONS - used


def test_no_sampled_sort_on_a_hash_bucket():
    """A hashed bucket column is bounded, so its exchange knows its ranges:
    no definition sorts one with a plain ``sort(<column>)`` (Ray's sampled
    sort, one reducer per input block); ``relational.sort_buckets`` is the
    only sort of a hash bucket.  The listed exceptions are no exception
    here."""
    hits = []
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        hits += [(rel, owner, col) for owner, col, how
                 in _hash_bucket_shuffles(ast.parse(path.read_text()))
                 if how == "sort"]
    assert not hits, hits


def test_shuffle_helpers_call_their_kernel_once_per_block():
    """``cogroup``, ``bucket_shuffle``, the flagship and the resumable
    write sort on their key and call the kernel once per sorted block
    (``map_batches(batch_size=None)``): none of them runs Ray's per-group
    loop, ``map_groups``, which calls the kernel once per distinct key."""
    def map_groups_calls(node):
        return [n.lineno for n in ast.walk(node)
                if isinstance(n, ast.Attribute) and n.attr == "map_groups"]

    def tops(rel):
        tree = ast.parse((PKG / rel).read_text())
        return {t.name: t for t in tree.body
                if isinstance(t, ast.FunctionDef)}

    rel = tops("stages/relational.py")
    hits = {name: map_groups_calls(rel[name])
            for name in ("cogroup", "bucket_shuffle")}
    hits["pipelines/flagship.py"] = map_groups_calls(
        ast.parse((PKG / "pipelines" / "flagship.py").read_text()))
    hits["write_partitioned_resumable"] = map_groups_calls(
        tops("runtime/checkpoint.py")["write_partitioned_resumable"])
    assert not any(hits.values()), hits


# file renames left outside ``runtime/checkpoint.py``, with their reasons
RENAME_EXCEPTIONS = {
    # one GeoJSON file rewritten in place (tmp file + replace), no directory
    ("io/codecs.py", "write_geojson"),
    # moves the manifest-named part files into place inside a
    # ``publish_dir`` build: a retried Ray task leaves orphan parts that
    # only the manifest tells apart
    ("pipelines/queries/webtext.py", "q_csv_quarantine_stats"),
}


def test_one_fingerprint_and_one_publish():
    """Every derived output decides "still valid for this input?" with
    ``checkpoint.input_fingerprint``, the only reader of ``st_mtime_ns``,
    and is committed by ``runtime/checkpoint.py`` (``publish_dir``,
    ``commit_partition``, the seal), the only caller of ``os.rename`` and
    ``os.replace``. The exceptions are listed above with their reasons;
    an exception that no longer matches must leave the list."""
    hits, used = [], set()
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute)
                        and node.attr == "st_mtime_ns"
                        and (rel, owner) != ("runtime/checkpoint.py",
                                             "input_fingerprint")):
                    hits.append((rel, owner, "st_mtime_ns"))
                elif (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr in ("rename", "replace")
                      and getattr(node.func.value, "id", "") == "os"
                      and rel != "runtime/checkpoint.py"):
                    if (rel, owner) in RENAME_EXCEPTIONS:
                        used.add((rel, owner))
                    else:
                        hits.append((rel, owner, f"os.{node.func.attr}"))
    assert not hits, hits
    assert used == RENAME_EXCEPTIONS, RENAME_EXCEPTIONS - used


#: every function that decides broadcast-or-shuffle (or single pass or
#: rounds) by ``util.BROADCAST_LIMIT_BYTES``; a new decision point is
#: added here on purpose
BUDGET_READERS = {
    ("pipelines/flagship.py", "duplicate_url_map"),
    ("pipelines/queries/relational.py", "q_join_discovery_scan"),
    ("stages/dedup.py", "_flag_profile"),
    ("stages/dedup.py", "connected_components"),
    ("stages/dedup.py", "domain_boilerplate_stats"),
    ("stages/dedup.py", "jaccard_verify_pairs"),
    ("stages/dedup.py", "prefix_filter_candidates"),
    ("stages/graph_ops.py", "bfs_hops"),
    ("stages/graph_ops.py", "hits"),
    ("stages/graph_ops.py", "k_core"),
    ("stages/graph_ops.py", "label_propagation"),
    ("stages/graph_ops.py", "local_clustering"),
    ("stages/graph_ops.py", "pagerank"),
    ("stages/graph_ops.py", "sssp_rounds"),
    ("stages/graph_ops.py", "triangle_count"),
    ("stages/joins.py", "pip_join_auto"),
    ("stages/relational.py", "cohort_retention"),
    ("stages/relational.py", "grouped_zscore"),
    ("stages/text.py", "bigram_lm_scores"),
    ("stages/text.py", "pmi_collocations"),
    ("stages/text.py", "rare_word_stats"),
    ("stages/text.py", "tfidf_top_terms"),
    ("stages/text.py", "top_pmi_collocations"),
}


def test_one_broadcast_budget():
    """No function takes a size-budget parameter (``*limit_bytes``,
    ``single_task_*``): every broadcast-or-shuffle decision reads
    ``util.BROADCAST_LIMIT_BYTES`` at call time, as a module attribute,
    so that setting it reaches every decision.  A name import would
    freeze the value at import time."""
    hits, readers = [], set()
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()

        def visit(node, fn):
            for ch in ast.iter_child_nodes(node):
                inner = fn
                if isinstance(ch, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    inner = ch.name
                    for a in (ch.args.posonlyargs + ch.args.args
                              + ch.args.kwonlyargs):
                        if (a.arg.endswith("limit_bytes")
                                or a.arg.startswith("single_task_")):
                            hits.append((rel, ch.name, a.arg))
                elif (isinstance(ch, ast.ImportFrom) and any(
                        a.name == "BROADCAST_LIMIT_BYTES" for a in ch.names)):
                    hits.append((rel, fn, "import BROADCAST_LIMIT_BYTES"))
                elif (isinstance(ch, ast.Attribute)
                      and ch.attr == "BROADCAST_LIMIT_BYTES"):
                    readers.add((rel, fn))
                visit(ch, inner)

        visit(ast.parse(path.read_text()), None)
    assert not hits, hits
    assert readers == BUDGET_READERS, (readers - BUDGET_READERS,
                                       BUDGET_READERS - readers)


def test_bucket_shuffle_exceptions_are_the_flagship_sorts():
    """Every hand-rolled hash exchange outside the flagship goes through
    ``bucket_shuffle``; a pair or multi-column group keys it on one
    column of the pair (or on a hash of the group columns) instead."""
    assert BUCKET_SHUFFLE_EXCEPTIONS == {
        ("pipelines/flagship.py", "duplicate_url_map"),
        ("pipelines/flagship.py", "flagship_region_counts_streaming")}


# the definitions that take a bucket count: each computes the range of a
# key it builds itself (the salted join's ``NUM_BUCKETS * salt``, or
# ``None`` for the unbounded S2 cell and band keys)
BUCKET_BOUND_TAKERS = {"stable_bucket", "sort_buckets", "cogroup",
                       "_bucket_join"}


def test_one_bucket_count_for_the_engine():
    """No definition takes a per-call hash-bucket count: every hash-bucket
    shuffle reads ``relational.NUM_BUCKETS`` when called, so one
    ``monkeypatch.setattr(relational, "NUM_BUCKETS", n)`` reaches all of
    them.  A name import (``from .relational import NUM_BUCKETS``) would
    copy the value at import and miss that, so there is none."""
    takers, imports = set(), []
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                params = {p.arg for p in
                          a.posonlyargs + a.args + a.kwonlyargs}
                if params & {"num_buckets", "num_shards"}:
                    takers.add(node.name)
            elif isinstance(node, ast.ImportFrom):
                imports += [(rel, node.lineno) for al in node.names
                            if al.name == "NUM_BUCKETS"]
    assert takers == BUCKET_BOUND_TAKERS, takers ^ BUCKET_BOUND_TAKERS
    assert not imports, imports
