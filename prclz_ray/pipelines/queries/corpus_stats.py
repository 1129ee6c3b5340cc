"""Statistics demos over the documents table and the embeddings:
text-corpus summaries, ranking metrics and cluster-quality scores."""
from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ...stages import dedup as dd
from ...stages import relational, text
from .common import (
    _SEM_DIM, _SEM_K, _SEM_SEED, _SQL_LINKS_CTE, _doc_features,
    _doc_logreg_scored, _fingerprint_cache_dir, _read,
    _sql_minhash_sig_prefix, _sym_adjacency, _synthetic_links)


def q_media_dup_pairs(sf_dir: str):
    """Multimodal near-dup: decode (real BMP/WAV, digest-fallback video)
    → feature vectors → banded hyperplane-LSH dup pairs over the decoded
    features, with 10 seeded exact payload copies (media i ↔ i+1000).
    Rows-only (binary source, no SQL twin); the expected pair set is
    pytest-pinned.  The end-to-end composition a media-dedup user runs:
    actor-pool decode feeding the embedding dedup shuffle."""
    from ...stages.multimodal import decode_pipeline, synth_media_table
    base = synth_media_table(60)
    dup = base.slice(0, 10)
    dup = dup.set_column(
        dup.schema.get_field_index("media_id"), "media_id",
        pa.array([f"m{1000 + i:05d}" for i in range(10)]))
    ds = rd.from_arrow(pa.concat_tables([base, dup]))
    feats = decode_pipeline(ds)

    def to_vec(t: pa.Table) -> pa.Table:
        ids = [int(m[1:]) for m in t["media_id"].to_pylist()]
        return pa.table({"vec_id": pa.array(ids, type=pa.int64()),
                         "embedding": t["features"]})

    vecs = feats.map_batches(to_vec, batch_format="pyarrow")
    out = dd.embedding_dedup_pairs(vecs, cosine_threshold=0.9999) \
        .to_pandas()
    if out.empty:
        out = pd.DataFrame({"a": pd.Series(dtype="int64"),
                            "b": pd.Series(dtype="int64"),
                            "cosine": pd.Series(dtype="float64")})
    return out[["a", "b", "cosine"]]


def q_dup_cluster_size_histogram(sf_dir: str):
    """Dedup reporting: histogram of exact-duplicate cluster sizes
    (how much of the corpus is 1x, 2x, ...).  Two partial-combined
    count shuffles over u64 content hashes — text never shuffles."""
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["text"])

    def h1(t: pa.Table) -> pa.Table:
        hs = dd._stable_u64(t["text"].to_pylist())
        g, c = np.unique(hs, return_counts=True)
        return pa.table({"h": pa.array(g, type=pa.uint64()),
                         "c": pa.array(c.astype(np.int64)),
                         "_b": pa.array((g % np.uint64(64))
                                        .astype(np.int32))})

    def h2(df: pd.DataFrame) -> pa.Table:
        s = df.groupby("h", sort=False)["c"].sum()
        g, c = np.unique(s.to_numpy(dtype=np.int64), return_counts=True)
        return pa.table({"cluster_size": pa.array(g),
                         "pn": pa.array(c.astype(np.int64))})

    return docs.map_batches(h1, batch_format="pyarrow") \
        .groupby("_b").map_groups(h2, batch_format="pandas") \
        .groupby("cluster_size").aggregate(Sum("pn",
                                               alias_name="n_clusters"))


SQL_DUP_HISTOGRAM = """
SELECT cnt AS cluster_size, COUNT(*) AS n_clusters
FROM (SELECT COUNT(*) AS cnt FROM documents GROUP BY text)
GROUP BY cnt
"""


def q_degree_histogram_links(sf_dir: str):
    """In-degree distribution of the synthetic link graph (same edge
    derivation as pagerank_links): two partial-combined groupbys —
    count per dst, then node-count per degree.  Zero-in-degree nodes
    are absent on both sides by construction."""
    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()

    def edges(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.repeat(d, 3)
        k = np.tile(np.array([1, 2, 3], dtype=np.int64), len(d))
        dst = (src * 7919 + k * 104729) % n
        # partial combine: per-batch dst counts before the shuffle
        g, c = np.unique(dst, return_counts=True)
        return pa.table({"dst": pa.array(g),
                         "c": pa.array(c.astype(np.int64)),
                         "_b": pa.array((g % 64).astype(np.int32))})

    def deg_per_dst(df: pd.DataFrame) -> pa.Table:
        s = df.groupby("dst", sort=False)["c"].sum()
        g, c = np.unique(s.to_numpy(dtype=np.int64), return_counts=True)
        return pa.table({"deg": pa.array(g),
                         "nc": pa.array(c.astype(np.int64)),
                         "_b2": pa.array((g % 16).astype(np.int32))})

    def hist(df: pd.DataFrame) -> pa.Table:
        s = df.groupby("deg", sort=False)["nc"].sum()
        return pa.table({"deg": pa.array(s.index.to_numpy(dtype=np.int64)),
                         "n_nodes": pa.array(s.to_numpy(dtype=np.int64))})

    return docs.map_batches(edges, batch_format="pyarrow") \
        .groupby("_b").map_groups(deg_per_dst, batch_format="pandas") \
        .groupby("_b2").map_groups(hist, batch_format="pandas")


def q_within_doc_line_dedup(sf_dir: str):
    """Within-document repeated-line removal (in-page boilerplate strip:
    repeated nav rows / footer lines collapse to their first
    occurrence, order otherwise preserved).  Pure per-batch map — arrow
    RE2-free split on newline, one vectorized drop_duplicates per
    batch, per-doc rejoin — no shuffle, the 100-TB-friendliest shape
    there is."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        parts = pc.split_pattern(batch["text"], pattern="\n")
        col = parts.combine_chunks() if isinstance(parts, pa.ChunkedArray) \
            else parts
        if isinstance(col, pa.ChunkedArray):
            col = col.chunk(0) if col.num_chunks == 1 else \
                pa.concat_arrays(col.chunks)
        offs = np.diff(col.offsets.to_numpy(zero_copy_only=False)
                       .astype(np.int64))
        idx = np.repeat(np.arange(len(offs)), offs)
        lines = col.values.to_pandas()
        df = pd.DataFrame({"i": idx, "line": lines})
        kept = df.drop_duplicates(["i", "line"], keep="first")
        joined = kept.groupby("i", sort=True)["line"].agg("\n".join)
        nk = kept.groupby("i", sort=True).size()
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        full = np.arange(len(offs))
        out_text = pd.Series("", index=full, dtype=object)
        out_text.loc[joined.index] = joined
        out_k = pd.Series(0, index=full, dtype=np.int64)
        out_k.loc[nk.index] = nk
        return pa.table({
            "doc_id": pa.array(ids),
            "text_clean": pa.array(out_text.to_numpy(dtype=object),
                                   type=pa.string()),
            "n_lines": pa.array(offs.astype(np.int64)),
            "n_kept": pa.array(out_k.to_numpy(dtype=np.int64))})

    return docs.map_batches(f, batch_format="pyarrow")


SQL_WITHIN_DOC_DEDUP = """
WITH l AS (SELECT doc_id, string_split(text, chr(10)) AS ls
           FROM documents),
u AS (SELECT doc_id, unnest(generate_series(1, len(ls))) AS i, ls FROM l),
x AS (SELECT doc_id, i, ls[i] AS line FROM u),
k AS (SELECT doc_id, i, line,
             MIN(i) OVER (PARTITION BY doc_id, line) AS fi FROM x)
SELECT doc_id,
       COALESCE(string_agg(line, chr(10) ORDER BY i)
                FILTER (WHERE i = fi), '') AS text_clean,
       CAST(COUNT(*) AS BIGINT) AS n_lines,
       CAST(COUNT(*) FILTER (WHERE i = fi) AS BIGINT) AS n_kept
FROM k GROUP BY doc_id
"""


def q_graph_reciprocity(sf_dir: str):
    """Directed-graph reciprocity: the fraction of distinct non-loop
    edges (u→v) whose reverse (v→u) also exists — the standard
    social-vs-web graph diagnostic.  Each edge maps to its unordered
    pair key with a direction flag; distinct (pair, dir) partials
    reduce through ONE pair-bucket shuffle where a vectorized groupby
    counts pairs carrying both directions.  Exact ints; the ratio is a
    single mirrored division."""
    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()

    def edges(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.repeat(d, 3)
        k = np.tile(np.array([1, 2, 3], dtype=np.int64), len(d))
        dst = (src * 7919 + k * 104729) % n
        keep = src != dst
        src, dst = src[keep], dst[keep]
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        fwd = (src < dst).astype(np.int64)      # dir bit within the pair
        g = pd.DataFrame({"lo": lo, "hi": hi, "fwd": fwd}) \
            .drop_duplicates()
        g["_pb"] = ((g["lo"].to_numpy(np.int64) * 2654435761
                     + g["hi"].to_numpy(np.int64)) % 64)
        return pa.Table.from_pandas(g, preserve_index=False)

    def per_bucket(df: pd.DataFrame) -> pa.Table:
        d = df.drop_duplicates(["lo", "hi", "fwd"])
        g = d.groupby(["lo", "hi"], sort=False)["fwd"].agg(["count"])
        ndir = g["count"].to_numpy(np.int64)    # 1 or 2 directions
        m = int(ndir.sum())                     # distinct directed edges
        recip = int((ndir == 2).sum()) * 2      # both directions count
        return pa.table({"m": pa.array([m], type=pa.int64()),
                         "recip": pa.array([recip], type=pa.int64())})

    agg = relational.ds_to_table(
        docs.map_batches(edges, batch_format="pyarrow")
        .groupby("_pb").map_groups(per_bucket, batch_format="pandas")
    ).to_pandas()                   # ≤ 64 one-row bucket partials
    m = int(agg["m"].sum())
    recip = int(agg["recip"].sum())
    return pd.DataFrame({
        "n_edges": np.array([m], dtype=np.int64),
        "n_reciprocal": np.array([recip], dtype=np.int64),
        "reciprocity": np.array(
            [round(float(recip) / float(m), 6)], dtype=np.float64)})


SQL_RECIPROCITY = """
WITH nn AS (SELECT COUNT(*) AS cnt FROM documents),
e2 AS (SELECT DISTINCT src, dst FROM (
        SELECT doc_id AS src,
               (doc_id * 7919 + k * 104729) % cnt AS dst
        FROM documents, nn, (SELECT unnest([1, 2, 3]) AS k) t)
       WHERE src <> dst),
r AS (SELECT CAST(COUNT(*) AS BIGINT) AS n_reciprocal
      FROM e2 a JOIN e2 b ON a.src = b.dst AND a.dst = b.src),
t AS (SELECT CAST(COUNT(*) AS BIGINT) AS n_edges FROM e2)
SELECT t.n_edges, r.n_reciprocal,
       ROUND(CAST(r.n_reciprocal AS DOUBLE)
             / CAST(t.n_edges AS DOUBLE), 6) AS reciprocity
FROM t, r
"""


def q_neighbor_jaccard_topk(sf_dir: str):
    """Structural-similarity top-k: Jaccard of neighborhoods
    cn / (deg_u + deg_v − cn) over vertex pairs with ≥1 common
    neighbor — the common-neighbor table from the cooccurrence kernel
    plus a broadcast degree attach; exact ints until the one mirrored
    division, ordered (jacc DESC, a, b)."""
    from ray.data.aggregate import Sum
    edges, n = _synthetic_links(sf_dir)

    from ...stages.graph_ops import _normalize_undirected
    und = _normalize_undirected(edges, "src", "dst").materialize()

    def deg_partial(t: pa.Table) -> pa.Table:
        nn = np.concatenate(
            [t["ea"].to_numpy(zero_copy_only=False),
             t["eb"].to_numpy(zero_copy_only=False)]).astype(np.int64)
        uniq, cnt = np.unique(nn, return_counts=True)
        return pa.table({"node": pa.array(uniq),
                         "pn": pa.array(cnt.astype(np.int64))})

    deg = relational.ds_to_table(
        und.map_batches(deg_partial, batch_format="pyarrow")
        .groupby("node").aggregate(Sum("pn", alias_name="deg")))
    ids = deg["node"].to_numpy(zero_copy_only=False).astype(np.int64)
    dv = deg["deg"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(ids)
    import ray
    ref = ray.put((ids[order], dv[order]))

    sym = _sym_adjacency

    pairs = relational.cooccurrence_pairs(
        und.map_batches(sym, batch_format="pyarrow"),
        key_col="pivot", val_col="leaf", max_vals_per_key=None)

    def score(t: pa.Table) -> pa.Table:
        from ...stages.relational import worker_cached
        _ids, _dv = worker_cached(("nj_deg", ref), lambda: ray.get(ref))
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        cn = t["n_keys"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        da = _dv[np.searchsorted(_ids, a)]
        db = _dv[np.searchsorted(_ids, b)]
        jacc = cn.astype(np.float64) / (da + db - cn).astype(np.float64)
        # sort on the UNROUNDED double (the SQL ORDER BY does too);
        # rounding happens only on the returned column
        out = pa.table({"a": pa.array(a), "b": pa.array(b),
                        "cn": pa.array(cn),
                        "jacc": pa.array(jacc)})
        return out.sort_by([("jacc", "descending"), ("a", "ascending"),
                            ("b", "ascending")]).slice(0, 25)

    pruned = relational.ds_to_table(
        pairs.map_batches(score, batch_format="pyarrow"))
    top = pruned.sort_by([("jacc", "descending"), ("a", "ascending"),
                          ("b", "ascending")]).slice(0, 25).to_pandas()
    top["jacc"] = np.round(top["jacc"], 6)
    return top.astype({"a": np.int64, "b": np.int64, "cn": np.int64})


SQL_NEIGHBOR_JACCARD = f"""
WITH {_SQL_LINKS_CTE},
deg AS (SELECT u AS node, CAST(COUNT(*) AS BIGINT) AS deg
        FROM sym GROUP BY 1),
cn AS (SELECT e1.v AS a, e2.v AS b, CAST(COUNT(*) AS BIGINT) AS cn
       FROM sym e1 JOIN sym e2 ON e1.u = e2.u AND e1.v < e2.v
       GROUP BY 1, 2)
SELECT a, b, cn,
       ROUND(CAST(cn AS DOUBLE)
             / CAST(da.deg + db.deg - cn AS DOUBLE), 6) AS jacc
FROM cn JOIN deg da ON cn.a = da.node
        JOIN deg db ON cn.b = db.node
ORDER BY CAST(cn AS DOUBLE)
         / CAST(da.deg + db.deg - cn AS DOUBLE) DESC, a, b
LIMIT 25
"""


def _langid_pred_sql_body() -> str:
    """The shared scored→pred CTE body for langid-derived oracles —
    generated from the SAME ``text._LANG_PROFILES`` dict as the Ray
    stage, so the two sides cannot drift (same contract as
    ``_langid_sql``)."""
    langs = list(text._LANG_PROFILES)
    pats = {
        lg: r"\b(?:" + "|".join(sorted(prof, key=len, reverse=True))
        + r")\b"
        for lg, prof in text._LANG_PROFILES.items()}
    counts = ",\n    ".join(
        f"length(regexp_extract_all(lower(text), '{pats[lg]}')) AS c_{lg}"
        for lg in langs)
    all_c = ", ".join(f"c_{lg}" for lg in langs)
    branches = []
    for i, lg in enumerate(langs):
        conds = " AND ".join(f"c_{lg} >= c_{other}"
                             for other in langs[i + 1:])
        branches.append(f"WHEN {conds or 'TRUE'} THEN '{lg}'")
    case = "\n      ".join(branches)
    return f"""
scored AS (
  SELECT lang,
    {counts}
  FROM documents
),
pred AS (
  SELECT lang,
    CASE WHEN GREATEST({all_c}) = 0 THEN 'und'
      {case}
    END AS lang_pred
  FROM scored
)"""


_LANGID_CONF_MEMO: dict = {}


def q_langid_confusion(sf_dir: str):
    """Classifier-evaluation confusion matrix: true ``lang`` × LangId
    prediction counts — the model-eval surface over the same stateful
    actor-pool stage `langid_documents` benches; exact counts, tiny
    (langs²-bounded) shuffle.  Memoized per input fingerprint so the
    precision/recall query doesn't re-classify the corpus."""
    memo_key = _fingerprint_cache_dir(sf_dir, "documents", "langconf")
    hit = _LANGID_CONF_MEMO.get(memo_key)
    if hit is not None:
        return hit.copy()
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["lang", "text"])
    pred = docs.map_batches(text.LangId, batch_format="pandas",
                            concurrency=2)

    def partial(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({
            "lang": t["lang"].to_numpy(zero_copy_only=False),
            "lang_pred": t["lang_pred"].to_numpy(zero_copy_only=False),
            "pn": 1}).groupby(["lang", "lang_pred"], sort=False) \
            .sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    o = relational.ds_to_table(
        pred.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "lang_pred"]).aggregate(
            Sum("pn", alias_name="n"))
    ).to_pandas().sort_values(["lang", "lang_pred"]) \
        .reset_index(drop=True)
    o = o.astype({"n": np.int64})
    _LANGID_CONF_MEMO.clear()          # one entry: bounded memory
    _LANGID_CONF_MEMO[memo_key] = o.copy()
    return o


def _langid_confusion_sql() -> str:
    return f"""
WITH {_langid_pred_sql_body()}
SELECT lang, lang_pred, CAST(COUNT(*) AS BIGINT) AS n
FROM pred GROUP BY 1, 2 ORDER BY 1, 2
"""


SQL_LANGID_CONFUSION = _langid_confusion_sql()


def q_langid_precision_recall(sf_dir: str):
    """Per-language precision / recall / F1 of the LangId classifier
    against the true labels — the evaluation-metrics finish over the
    langs²-bounded confusion matrix; tp/fp/fn are exact ints, each
    metric is ONE mirrored division (F1 from the same p and r
    doubles), NULL when the denominator is zero like SQL x/0."""
    conf = q_langid_confusion(sf_dir)
    langs = sorted(set(conf["lang"]) | set(conf["lang_pred"]))
    rows = []
    for lg in langs:
        tp = int(conf.loc[(conf["lang"] == lg)
                          & (conf["lang_pred"] == lg), "n"].sum())
        fp = int(conf.loc[(conf["lang"] != lg)
                          & (conf["lang_pred"] == lg), "n"].sum())
        fn = int(conf.loc[(conf["lang"] == lg)
                          & (conf["lang_pred"] != lg), "n"].sum())
        p = None if tp + fp == 0 else tp / (tp + fp)
        r = None if tp + fn == 0 else tp / (tp + fn)
        f1 = None if p is None or r is None or p + r == 0 \
            else 2.0 * p * r / (p + r)
        rows.append({
            "lang": lg, "tp": tp, "fp": fp, "fn": fn,
            "precision": None if p is None else round(p, 6),
            "recall": None if r is None else round(r, 6),
            "f1": None if f1 is None else round(f1, 6)})
    return pd.DataFrame(rows).astype({"tp": np.int64, "fp": np.int64,
                                      "fn": np.int64})


def _langid_pr_sql() -> str:
    return f"""
WITH {_langid_pred_sql_body()},
conf AS (SELECT lang, lang_pred, CAST(COUNT(*) AS BIGINT) AS n
         FROM pred GROUP BY 1, 2),
cls AS (SELECT lang AS lg FROM conf
        UNION SELECT lang_pred FROM conf),
m AS (SELECT lg,
             COALESCE((SELECT SUM(n) FROM conf
                       WHERE lang = lg AND lang_pred = lg), 0) AS tp,
             COALESCE((SELECT SUM(n) FROM conf
                       WHERE lang <> lg AND lang_pred = lg), 0) AS fp,
             COALESCE((SELECT SUM(n) FROM conf
                       WHERE lang = lg AND lang_pred <> lg), 0) AS fn
      FROM cls),
pr AS (SELECT lg, tp, fp, fn,
              CASE WHEN tp + fp = 0 THEN NULL
                   ELSE CAST(tp AS DOUBLE) / (tp + fp) END AS p,
              CASE WHEN tp + fn = 0 THEN NULL
                   ELSE CAST(tp AS DOUBLE) / (tp + fn) END AS r
       FROM m)
SELECT lg AS lang, CAST(tp AS BIGINT) AS tp, CAST(fp AS BIGINT) AS fp,
       CAST(fn AS BIGINT) AS fn,
       ROUND(p, 6) AS precision, ROUND(r, 6) AS recall,
       CASE WHEN p IS NULL OR r IS NULL OR p + r = 0 THEN NULL
            ELSE ROUND(2.0 * p * r / (p + r), 6) END AS f1
FROM pr ORDER BY lang
"""


SQL_LANGID_PR = _langid_pr_sql()


def q_stratified_kfold(sf_dir: str):
    """Stratified k-fold assignment: within each lang stratum, docs
    round-robin into 5 folds in doc_id order, so every fold holds
    ⌈n_s/5⌉-or-⌊n_s/5⌋ rows of EVERY stratum (the property plain hash
    splitting only approaches in expectation).  Rank-within-stratum
    comes from the per-(lang)-bucket sort — one bounded shuffle; the
    output here is the (lang, fold) size matrix."""
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["doc_id", "lang"])

    def per_lang(g: pd.DataFrame) -> pd.DataFrame:
        df = g.sort_values("doc_id")
        fold = np.arange(len(df), dtype=np.int64) % 5
        out = pd.DataFrame({"lang": df["lang"].to_numpy(),
                            "fold": fold, "pn": 1})
        return out.groupby(["lang", "fold"], sort=False).sum() \
            .reset_index()

    o = relational.ds_to_table(
        docs.groupby("lang").map_groups(per_lang,
                                        batch_format="pandas")
        .groupby(["lang", "fold"]).aggregate(Sum("pn", alias_name="n"))
    ).to_pandas().sort_values(["lang", "fold"]).reset_index(drop=True)
    return o.astype({"fold": np.int64, "n": np.int64})


SQL_STRATIFIED_KFOLD = """
WITH r AS (SELECT lang,
                  (ROW_NUMBER() OVER (PARTITION BY lang
                                      ORDER BY doc_id) - 1) % 5 AS fold
           FROM documents)
SELECT lang, CAST(fold AS BIGINT) AS fold,
       CAST(COUNT(*) AS BIGINT) AS n
FROM r GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_encoding_anomaly_scan(sf_dir: str):
    """Data-quality encoding scan: per source, documents containing
    non-ASCII codepoints and the exact non-ASCII character total — the
    mojibake / encoding-drift detector a crawl ingest runs.  One
    vectorized Arrow regex count per batch (no per-row decode
    probing)."""
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["source", "text"])

    def partial(t: pa.Table) -> pa.Table:
        total = pc.utf8_length(t["text"]).to_numpy(
            zero_copy_only=False).astype(np.int64)
        ascii_only = pc.count_substring_regex(
            t["text"], r"[\x00-\x7F]").to_numpy(
            zero_copy_only=False).astype(np.int64)
        non_ascii = total - ascii_only
        g = pd.DataFrame({
            "source": t["source"].to_numpy(zero_copy_only=False),
            "pn": 1,
            "pdocs": (non_ascii > 0).astype(np.int64),
            "pchars": non_ascii}) \
            .groupby("source", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    o = relational.ds_to_table(
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("source").aggregate(
            Sum("pn", alias_name="n_docs"),
            Sum("pdocs", alias_name="docs_non_ascii"),
            Sum("pchars", alias_name="chars_non_ascii"))
    ).to_pandas().sort_values("source").reset_index(drop=True)
    return o.astype({"n_docs": np.int64, "docs_non_ascii": np.int64,
                     "chars_non_ascii": np.int64})


SQL_ENCODING_SCAN = """
WITH x AS (SELECT source,
                  length(text)
                    - length(regexp_replace(text, '[^\\x00-\\x7F]',
                                            '', 'g')) AS na
           FROM documents)
SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(CASE WHEN na > 0 THEN 1 ELSE 0 END) AS BIGINT)
         AS docs_non_ascii,
       CAST(SUM(na) AS BIGINT) AS chars_non_ascii
FROM x GROUP BY 1 ORDER BY 1
"""


def q_catalog_row_counts(sf_dir: str):
    """Catalog-level profile: exact row counts per table from parquet
    FOOTER metadata only — zero data rows read, the warehouse
    information_schema surface."""
    import glob
    import os

    import pyarrow.parquet as pq_
    rows = []
    for t in ["region", "nation", "customer", "supplier", "part",
              "orders", "lineitem", "events", "documents",
              "embeddings"]:
        # the engine's single-file contract ({t}.parquet exactly) —
        # a prefix glob would fold name-prefixed siblings into the count
        f = os.path.join(sf_dir, f"{t}.parquet")
        n = pq_.read_metadata(f).num_rows if os.path.exists(f) else 0
        rows.append({"table_name": t, "n_rows": n})
    return pd.DataFrame(rows).sort_values("table_name") \
        .reset_index(drop=True).astype({"n_rows": np.int64})


SQL_CATALOG_COUNTS = """
SELECT 'customer' AS table_name, CAST(COUNT(*) AS BIGINT) AS n_rows
FROM customer
UNION ALL SELECT 'documents', COUNT(*) FROM documents
UNION ALL SELECT 'embeddings', COUNT(*) FROM embeddings
UNION ALL SELECT 'events', COUNT(*) FROM events
UNION ALL SELECT 'lineitem', COUNT(*) FROM lineitem
UNION ALL SELECT 'nation', COUNT(*) FROM nation
UNION ALL SELECT 'orders', COUNT(*) FROM orders
UNION ALL SELECT 'part', COUNT(*) FROM part
UNION ALL SELECT 'region', COUNT(*) FROM region
UNION ALL SELECT 'supplier', COUNT(*) FROM supplier
ORDER BY table_name
"""


def q_phrase_search(sf_dir: str):
    """Exact phrase query over a positional token stream (the retrieval
    op a positional inverted index exists for): the corpus's most
    frequent bigram is found first (reusing the bounded top-k n-gram
    kernel), then each batch counts ADJACENT-position matches with one
    vectorized shift-compare that never crosses a document boundary —
    no per-row tokenize loop, no index materialization beyond the
    1-row phrase broadcast.  Output is every matching doc with its
    occurrence count."""
    from ray.data.aggregate import Sum

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    top = text.top_k_ngrams(docs, text_col="text", n=2, k=1)
    w1, w2 = top["gram"][0].as_py().split(" ")

    def count(batch: pa.Table) -> pa.Table:
        parts = pc.split_pattern(batch["text"], pattern=" ")
        flat = pc.list_flatten(parts).combine_chunks()
        parent = pc.list_parent_indices(parts).to_numpy(
            zero_copy_only=False)
        toks = flat.to_numpy(zero_copy_only=False)
        empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                          "pn": pa.array([], type=pa.int64())})
        if len(toks) < 2:
            return empty
        m = (toks[:-1] == w1) & (toks[1:] == w2) \
            & (parent[:-1] == parent[1:])
        if not m.any():
            return empty
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        g = pd.DataFrame({"doc_id": ids[parent[:-1][m]], "pn": 1}) \
            .groupby("doc_id", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    out = relational.ds_to_table(
        docs.map_batches(count, batch_format="pyarrow")
        .groupby("doc_id").aggregate(Sum("pn", alias_name="n_occur"))
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    return out.astype({"doc_id": np.int64, "n_occur": np.int64})


SQL_PHRASE_SEARCH = """
WITH t AS (SELECT doc_id, string_split(text, ' ') AS w
           FROM documents),
pos AS (SELECT doc_id, w, unnest(generate_series(1, len(w) - 1)) AS i
        FROM t WHERE len(w) >= 2),
big AS (SELECT w[CAST(i AS INT)] || ' ' || w[CAST(i AS INT) + 1]
          AS bigram, COUNT(*) AS n
        FROM pos GROUP BY 1 ORDER BY n DESC, bigram LIMIT 1)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_occur
FROM pos, big
WHERE w[CAST(i AS INT)] || ' ' || w[CAST(i AS INT) + 1] = big.bigram
GROUP BY doc_id ORDER BY doc_id
"""


def q_keyness_by_source(sf_dir: str):
    """Corpus-comparison keyness (Dunning log-likelihood G², the
    standard which-words-characterize-this-slice statistic): per
    (source, word) observed counts vs the expectation under
    source-independence, top-3 words per source by G².  The distributed
    part is one token explode into a (sources × vocabulary)-bounded
    count table; the G² finish is driver-trivial BY that bound.
    Ranking uses the unrounded double exactly like the SQL ORDER BY;
    the 4dp round happens on return."""
    from ray.data.aggregate import Sum

    docs = _read(sf_dir, "documents", ["source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        parts = pc.split_pattern(batch["text"], pattern=" ")
        flat = pc.list_flatten(parts).combine_chunks()
        parent = pc.list_parent_indices(parts).to_numpy(
            zero_copy_only=False)
        src = batch["source"].to_numpy(zero_copy_only=False)
        g = pd.DataFrame({"source": src[parent],
                          "word": flat.to_numpy(zero_copy_only=False),
                          "pn": 1}) \
            .groupby(["source", "word"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    sw = relational.ds_to_table(
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby(["source", "word"]).aggregate(Sum("pn",
                                                   alias_name="a"))
    ).to_pandas()
    sw["a"] = sw["a"].astype(np.int64)
    ns = sw.groupby("source")["a"].transform("sum").to_numpy(np.int64)
    nw = sw.groupby("word")["a"].transform("sum").to_numpy(np.int64)
    N = int(sw["a"].sum())
    a = sw["a"].to_numpy(np.int64)
    b = nw - a
    e1 = ns.astype(np.float64) * nw.astype(np.float64) / float(N)
    e2 = (N - ns).astype(np.float64) * nw.astype(np.float64) / float(N)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(a > 0, a * np.log(a / e1), 0.0)
        t2 = np.where(b > 0, b * np.log(b / e2), 0.0)
    sw["g2"] = 2.0 * (t1 + t2)
    sw["rank"] = sw.sort_values(["g2", "word"],
                                ascending=[False, True]) \
        .groupby("source").cumcount() + 1
    out = sw[sw["rank"] <= 3].sort_values(["source", "rank"])
    return pd.DataFrame({
        "source": out["source"].to_numpy(),
        "rank": out["rank"].to_numpy(np.int64),
        "word": out["word"].to_numpy(),
        "g2": np.round(out["g2"].to_numpy(np.float64), 4)})


SQL_KEYNESS = """
WITH w AS (SELECT source, unnest(string_split(text, ' ')) AS word
           FROM documents),
sw AS (SELECT source, word, CAST(COUNT(*) AS BIGINT) AS a
       FROM w GROUP BY 1, 2),
tot AS (SELECT SUM(a) AS n FROM sw),
s AS (SELECT source, SUM(a) AS ns FROM sw GROUP BY 1),
v AS (SELECT word, SUM(a) AS nw FROM sw GROUP BY 1),
g AS (SELECT sw.source, sw.word, sw.a,
             v.nw - sw.a AS b,
             CAST(s.ns AS DOUBLE) * CAST(v.nw AS DOUBLE)
               / CAST(tot.n AS DOUBLE) AS e1,
             CAST(tot.n - s.ns AS DOUBLE) * CAST(v.nw AS DOUBLE)
               / CAST(tot.n AS DOUBLE) AS e2
      FROM sw JOIN s USING (source) JOIN v USING (word)
      CROSS JOIN tot),
scored AS (SELECT source, word,
                  2.0 * (CASE WHEN a > 0
                              THEN a * ln(a / e1) ELSE 0.0 END
                         + CASE WHEN b > 0
                                THEN b * ln(b / e2) ELSE 0.0 END)
                    AS g2,
                  ROW_NUMBER() OVER (PARTITION BY source
                                     ORDER BY 2.0 * (CASE WHEN a > 0
                       THEN a * ln(a / e1) ELSE 0.0 END
                       + CASE WHEN b > 0
                              THEN b * ln(b / e2) ELSE 0.0 END) DESC,
                                     word) AS rank
           FROM g)
SELECT source, CAST(rank AS BIGINT) AS rank, word,
       ROUND(g2, 4) AS g2
FROM scored WHERE rank <= 3 ORDER BY source, rank
"""


def q_vocab_drift_psi(sf_dir: str):
    """Vocabulary drift monitoring: Population Stability Index between
    the word distributions of the corpus's early and late halves
    (doc_id split at the key-range midpoint) — the drop-in drift alarm
    for an LM ingest pipeline.  One token explode into a
    (half × vocab)-bounded count table; PSI terms (p−q)·ln(p/q)
    computed on the driver in the exact float order of the twin; the
    top-10 contributing words rank on the UNROUNDED double."""
    from ray.data.aggregate import Sum

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    lohi = docs.aggregate(
        __import__("ray").data.aggregate.Min("doc_id",
                                             alias_name="lo"),
        __import__("ray").data.aggregate.Max("doc_id",
                                             alias_name="hi"))
    mid = (int(lohi["lo"]) + int(lohi["hi"])) // 2

    def partial(batch: pa.Table) -> pa.Table:
        parts = pc.split_pattern(batch["text"], pattern=" ")
        flat = pc.list_flatten(parts).combine_chunks()
        parent = pc.list_parent_indices(parts).to_numpy(
            zero_copy_only=False)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        g = pd.DataFrame({"half": (ids[parent] > mid).astype(np.int64),
                          "word": flat.to_numpy(zero_copy_only=False),
                          "pn": 1}) \
            .groupby(["half", "word"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    hw = relational.ds_to_table(
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby(["half", "word"]).aggregate(Sum("pn",
                                                 alias_name="a"))
    ).to_pandas()
    piv = hw.pivot_table(index="word", columns="half", values="a",
                         fill_value=0).reset_index()
    ref = piv[0].to_numpy(np.int64)
    cur = piv[1].to_numpy(np.int64)
    both = (ref > 0) & (cur > 0)        # PSI defined on shared support
    words = piv["word"].to_numpy()[both]
    p = ref[both].astype(np.float64) / float(ref.sum())
    q = cur[both].astype(np.float64) / float(cur.sum())
    term = (p - q) * np.log(p / q)
    order = np.lexsort((words, -term))[:10]
    return pd.DataFrame({
        "word": words[order],
        "p_ref": np.round(p[order], 6),
        "p_cur": np.round(q[order], 6),
        "psi_term": np.round(term[order], 6)})


SQL_VOCAB_PSI = """
WITH b AS (SELECT (MIN(doc_id) + MAX(doc_id)) // 2 AS mid
           FROM documents),
w AS (SELECT CASE WHEN doc_id > b.mid THEN 1 ELSE 0 END AS half,
             unnest(string_split(text, ' ')) AS word
      FROM documents, b),
hw AS (SELECT half, word, CAST(COUNT(*) AS BIGINT) AS a
       FROM w GROUP BY 1, 2),
piv AS (SELECT word,
               SUM(CASE WHEN half = 0 THEN a ELSE 0 END) AS r,
               SUM(CASE WHEN half = 1 THEN a ELSE 0 END) AS c
        FROM hw GROUP BY 1),
tot AS (SELECT SUM(r) AS tr, SUM(c) AS tc FROM piv),
t AS (SELECT word,
             CAST(r AS DOUBLE) / tot.tr AS p,
             CAST(c AS DOUBLE) / tot.tc AS q
      FROM piv, tot WHERE r > 0 AND c > 0)
SELECT word, ROUND(p, 6) AS p_ref, ROUND(q, 6) AS p_cur,
       ROUND((p - q) * ln(p / q), 6) AS psi_term
FROM t ORDER BY (p - q) * ln(p / q) DESC, word LIMIT 10
"""


# ordered first-match-wins routing rules; the SQL CASE is generated
# from THIS list so the two sides cannot drift
_ROUTING_RULES = [
    ("ops", "error|fail"),
    ("query", "scan|join|sort"),
    ("stream", "window|batch|stream"),
]


def q_regex_routing_table(sf_dir: str):
    """Rules-engine routing: an ORDERED multi-pattern table classifies
    every document by its FIRST matching RE2 rule (default route
    'other') — the content-router every ingest pipeline runs.  One
    vectorized ``match_substring_regex`` pass per rule (rules-bounded,
    never per-row Python), an unassigned mask enforcing first-match
    precedence, and a routes-bounded count groupby.  The twin's CASE
    chain is generated from the same rule list."""
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["text"])

    def route(t: pa.Table) -> pa.Table:
        n = t.num_rows
        routes = np.full(n, "other", dtype=object)
        unassigned = np.ones(n, dtype=bool)
        for name, pat in _ROUTING_RULES:
            m = pc.match_substring_regex(t["text"], pat) \
                .to_numpy(zero_copy_only=False)
            hit = unassigned & m
            routes[hit] = name
            unassigned &= ~m
        g = pd.DataFrame({"route": routes, "pn": 1}) \
            .groupby("route", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    out = relational.ds_to_table(
        docs.map_batches(route, batch_format="pyarrow")
        .groupby("route").aggregate(Sum("pn", alias_name="n_docs"))
    ).to_pandas().sort_values("route").reset_index(drop=True)
    return out.astype({"n_docs": np.int64})


def _sql_routing() -> str:
    whens = "\n         ".join(
        f"WHEN regexp_matches(text, '{pat}') THEN '{name}'"
        for name, pat in _ROUTING_RULES)
    return f"""
SELECT CASE {whens}
         ELSE 'other' END AS route,
       CAST(COUNT(*) AS BIGINT) AS n_docs
FROM documents GROUP BY 1 ORDER BY 1
"""


def q_poststratification_weights(sf_dir: str):
    """Post-stratification calibration: after the standard 20 % hash
    sample of documents, per-language weights re-align the sample to
    the population (wₗ = pop-shareₗ / sample-shareₗ) — the survey-
    statistics fix every eval-set builder applies when a cheap sampler
    under- or over-draws a stratum.  Two bounded count aggregates (one
    per frame), a langs-bounded driver division mirroring the twin's
    CAST order; languages the sample missed drop like the INNER
    join."""
    from ray.data.aggregate import Sum

    docs = _read(sf_dir, "documents", ["doc_id", "lang"])

    def counts(sample_only: bool):
        def partial(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False) \
                .astype(np.uint64)
            keep = np.ones(len(ids), dtype=bool)
            if sample_only:
                with np.errstate(over="ignore"):
                    h = (ids + np.uint64(1)) \
                        * np.uint64(11400714819323198485)
                keep = (h % np.uint64(1_000_000)) \
                    < np.uint64(200_000)
            g = pd.DataFrame({"lang": t["lang"].to_numpy(
                zero_copy_only=False)[keep], "pn": 1}) \
                .groupby("lang", sort=False).sum().reset_index()
            return pa.Table.from_pandas(g, preserve_index=False)

        return relational.ds_to_table(
            docs.map_batches(partial, batch_format="pyarrow")
            .groupby("lang").aggregate(Sum("pn", alias_name="n"))
        ).to_pandas()

    pop = counts(False).rename(columns={"n": "pop_n"})
    smp = counts(True).rename(columns={"n": "samp_n"})
    out = pop.merge(smp, on="lang")
    tp = float(out["pop_n"].sum())
    tsm = float(out["samp_n"].sum())
    out["weight"] = np.round(
        (out["pop_n"].to_numpy(np.float64) / tp)
        / (out["samp_n"].to_numpy(np.float64) / tsm), 6)
    return out.sort_values("lang").reset_index(drop=True) \
        .astype({"pop_n": np.int64, "samp_n": np.int64})


SQL_POSTSTRAT = """
WITH pop AS (SELECT lang, CAST(COUNT(*) AS BIGINT) AS pop_n
             FROM documents GROUP BY 1),
smp AS (SELECT lang, CAST(COUNT(*) AS BIGINT) AS samp_n
        FROM documents
        WHERE ((CAST(doc_id + 1 AS HUGEINT) * 11400714819323198485)
               % 18446744073709551616) % 1000000 < 200000
        GROUP BY 1),
t AS (SELECT SUM(pop_n) AS tp FROM pop),
u AS (SELECT SUM(samp_n) AS ts FROM smp)
SELECT lang, pop_n, samp_n,
       ROUND((CAST(pop_n AS DOUBLE) / t.tp)
             / (CAST(samp_n AS DOUBLE) / u.ts), 6) AS weight
FROM pop JOIN smp USING (lang), t, u
ORDER BY lang
"""


def q_rectangle_count_links(sf_dir: str):
    """Exact 4-cycle (rectangle) counting over the shared synthetic
    link graph — the motif one step up from triangles, the backbone of
    bipartite-ish community scores: #C4 = Σ_{u<v} C(cn(u,v), 2) / 2
    (each rectangle is counted once per diagonal pair).  Common-
    neighbor counts ride the same symmetric-adjacency cooccurrence
    kernel as link prediction; integer arithmetic end to end.  The
    wedge pass is Σdeg²-shaped like every exact cn computation —
    fine on this near-regular graph; a skewed deployment caps it with
    the kernel's per-key limit at the cost of exactness."""
    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()

    def sym_edges(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        src = np.repeat(d, 3)
        k = np.tile(np.array([1, 2, 3], dtype=np.int64), len(d))
        dst = (src * 7919 + k * 104729) % n
        keep = src != dst
        a = np.minimum(src[keep], dst[keep])
        b = np.maximum(src[keep], dst[keep])
        return pa.table({"a": pa.array(a), "b": pa.array(b)})

    und = relational.ds_to_table(
        docs.map_batches(sym_edges, batch_format="pyarrow")
    ).to_pandas().drop_duplicates()
    both = pd.concat([
        und.rename(columns={"a": "u", "b": "w"}),
        und.rename(columns={"b": "u", "a": "w"})])
    sym = rd.from_pandas(both)
    cn = relational.cooccurrence_pairs(sym, key_col="w", val_col="u")
    t = relational.ds_to_table(cn).to_pandas()
    c = t["n_keys"].to_numpy(np.int64)
    total = int((c * (c - 1) // 2).sum()) // 2
    return pd.DataFrame([{"n_rectangles": total}]) \
        .astype({"n_rectangles": np.int64})


SQL_RECTANGLES = """
WITH raw AS (
  SELECT doc_id AS src,
         (doc_id * 7919 + k * 104729)
           % (SELECT COUNT(*) FROM documents) AS dst
  FROM documents CROSS JOIN (VALUES (1), (2), (3)) t(k)),
e AS (SELECT DISTINCT LEAST(src, dst) AS a, GREATEST(src, dst) AS b
      FROM raw WHERE src <> dst),
sym AS (SELECT a AS u, b AS w FROM e
        UNION ALL SELECT b, a FROM e),
cn AS (SELECT s1.u AS x, s2.u AS y, COUNT(*) AS c
       FROM sym s1 JOIN sym s2 ON s1.w = s2.w AND s1.u < s2.u
       GROUP BY 1, 2)
SELECT CAST(SUM(c * (c - 1) // 2) // 2 AS BIGINT) AS n_rectangles
FROM cn
"""


def q_vocab_growth_checkpoints(sf_dir: str):
    """Vocabulary growth curve (the Heaps'-law measurement an LM data
    recipe reads before sizing a tokenizer): distinct-word and total-
    token counts over nested corpus prefixes at 20/40/60/80/100 % of
    the doc-id range.  Each checkpoint is one projected filtered pass:
    token counts fold per batch; vocabulary counts shuffle distinct
    WORDS (vocabulary-bounded), never documents."""
    from ray.data.aggregate import Max, Min, Sum

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    lohi = docs.aggregate(Min("doc_id", alias_name="lo"),
                          Max("doc_id", alias_name="hi"))
    lo, hi = int(lohi["lo"]), int(lohi["hi"])
    span = hi - lo + 1
    rows = []
    for k in range(1, 6):
        cut = lo + -(-k * span // 5)      # ceil — mirrored in SQL
        sub = docs.filter(expr=f"doc_id < {cut}")

        def tok_partial(t: pa.Table) -> pa.Table:
            parts = pc.split_pattern(t["text"], pattern=" ")
            flat = pc.list_flatten(parts)
            return pa.table({"pn": pa.array([len(flat)])})

        n_tok = int(sub.map_batches(tok_partial,
                                    batch_format="pyarrow")
                    .aggregate(Sum("pn", alias_name="n"))["n"])

        def vocab_partial(t: pa.Table) -> pa.Table:
            parts = pc.split_pattern(t["text"], pattern=" ")
            return pa.table({"w": pc.unique(pc.list_flatten(parts))})

        n_vocab = sub.map_batches(vocab_partial,
                                  batch_format="pyarrow") \
            .groupby("w").count().count()
        rows.append({"checkpoint": k, "n_tokens": n_tok,
                     "n_vocab": int(n_vocab)})
    return pd.DataFrame(rows).astype(np.int64)


SQL_VOCAB_GROWTH = """
WITH b AS (SELECT MIN(doc_id) AS lo,
                  MAX(doc_id) - MIN(doc_id) + 1 AS span
           FROM documents),
w AS (SELECT doc_id, unnest(string_split(text, ' ')) AS word
      FROM documents)
SELECT k AS checkpoint,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM w, b
        WHERE doc_id < b.lo + (k * b.span + 4) // 5) AS n_tokens,
       (SELECT CAST(COUNT(DISTINCT word) AS BIGINT) FROM w, b
        WHERE doc_id < b.lo + (k * b.span + 4) // 5) AS n_vocab
FROM (SELECT unnest(generate_series(1, 5)) AS k)
ORDER BY checkpoint
"""


def q_cohens_kappa_langid(sf_dir: str):
    """Chance-corrected classifier agreement: Cohen's κ of the LangId
    predictions against the true labels, computed from the SAME
    memoized confusion matrix the precision/recall query reads —
    κ = (p₀ − pₑ)/(1 − pₑ) with p₀ the trace share and pₑ the
    marginal-product share, all exact ints until two mirrored float
    divisions.  The twin regenerates the classifier from the shared
    profile dict (the no-drift contract)."""
    conf = q_langid_confusion(sf_dir)
    N = int(conf["n"].sum())
    po_num = int(conf.loc[conf["lang"] == conf["lang_pred"],
                          "n"].sum())
    row = conf.groupby("lang")["n"].sum()
    col = conf.groupby("lang_pred")["n"].sum()
    labels = sorted(set(row.index) | set(col.index))
    pe_num = sum(int(row.get(l, 0)) * int(col.get(l, 0))
                 for l in labels)
    po = float(po_num) / N
    pe = float(pe_num) / (N * N)
    kappa = (po - pe) / (1.0 - pe)
    return pd.DataFrame([{
        "n_docs": N, "po": np.round(po, 6), "pe": np.round(pe, 6),
        "kappa": np.round(kappa, 6)}]).astype({"n_docs": np.int64})


def _sql_cohens_kappa() -> str:
    return f"""
WITH {_langid_pred_sql_body().lstrip()},
conf AS (SELECT lang, lang_pred, CAST(COUNT(*) AS BIGINT) AS n
         FROM pred GROUP BY 1, 2),
t AS (SELECT SUM(n) AS nn,
             SUM(CASE WHEN lang = lang_pred THEN n ELSE 0 END) AS tr
      FROM conf),
m AS (SELECT COALESCE(r.lab, c.lab) AS lab,
             COALESCE(r.rn, 0) AS rn, COALESCE(c.cn, 0) AS cn
      FROM (SELECT lang AS lab, SUM(n) AS rn FROM conf GROUP BY 1) r
      FULL OUTER JOIN
           (SELECT lang_pred AS lab, SUM(n) AS cn FROM conf
            GROUP BY 1) c
        ON r.lab = c.lab),
pe AS (SELECT SUM(rn * cn) AS pen FROM m)
SELECT CAST(t.nn AS BIGINT) AS n_docs,
       ROUND(CAST(t.tr AS DOUBLE) / t.nn, 6) AS po,
       ROUND(CAST(pe.pen AS DOUBLE) / (t.nn * t.nn), 6) AS pe,
       ROUND((CAST(t.tr AS DOUBLE) / t.nn
              - CAST(pe.pen AS DOUBLE) / (t.nn * t.nn))
             / (1.0 - CAST(pe.pen AS DOUBLE) / (t.nn * t.nn)), 6)
         AS kappa
FROM t, pe
"""


def q_mcc_langid(sf_dir: str):
    """Multiclass Matthews correlation (the Rₖ statistic) of the
    LangId classifier — the single-number eval that stays honest under
    class imbalance where accuracy and even κ inflate.  Reads the SAME
    memoized confusion matrix as the κ/precision-recall queries;
    trace, total and the marginal power sums stay exact ints until the
    one mirrored float expression num / (√(s²−Σp²)·√(s²−Σt²))."""
    import math

    conf = q_langid_confusion(sf_dir)
    s = int(conf["n"].sum())
    c = int(conf.loc[conf["lang"] == conf["lang_pred"], "n"].sum())
    row = conf.groupby("lang")["n"].sum()          # true marginals t_k
    col = conf.groupby("lang_pred")["n"].sum()     # pred marginals p_k
    labels = sorted(set(row.index) | set(col.index))
    stp = sum(int(row.get(l, 0)) * int(col.get(l, 0)) for l in labels)
    stt = sum(int(v) * int(v) for v in row)
    spp = sum(int(v) * int(v) for v in col)
    num = c * s - stp
    denx = s * s - spp
    deny = s * s - stt
    if denx == 0 or deny == 0:                     # single-class edge
        mcc = float("nan")
    else:
        mcc = float(num) / (math.sqrt(float(denx))
                            * math.sqrt(float(deny)))
    return pd.DataFrame([{"n_docs": s, "mcc": np.round(mcc, 6)}]) \
        .astype({"n_docs": np.int64})


def _sql_mcc_langid() -> str:
    return f"""
WITH {_langid_pred_sql_body().lstrip()},
conf AS (SELECT lang, lang_pred, CAST(COUNT(*) AS BIGINT) AS n
         FROM pred GROUP BY 1, 2),
t AS (SELECT SUM(n) AS s,
             SUM(CASE WHEN lang = lang_pred THEN n ELSE 0 END) AS c
      FROM conf),
rm AS (SELECT SUM(tt * tt) AS stt
       FROM (SELECT SUM(n) AS tt FROM conf GROUP BY lang)),
pm AS (SELECT SUM(pp * pp) AS spp
       FROM (SELECT SUM(n) AS pp FROM conf GROUP BY lang_pred)),
tp AS (SELECT SUM(a.rn * b.cn) AS stp
       FROM (SELECT lang AS lab, SUM(n) AS rn FROM conf
             GROUP BY 1) a
       JOIN (SELECT lang_pred AS lab, SUM(n) AS cn FROM conf
             GROUP BY 1) b ON a.lab = b.lab)
SELECT CAST(t.s AS BIGINT) AS n_docs,
       CASE WHEN (t.s * t.s - pm.spp) = 0
              OR (t.s * t.s - rm.stt) = 0 THEN NULL
            ELSE ROUND(CAST(t.c * t.s - tp.stp AS DOUBLE)
                       / (sqrt(CAST(t.s * t.s - pm.spp AS DOUBLE))
                          * sqrt(CAST(t.s * t.s - rm.stt AS DOUBLE))),
                       6)
       END AS mcc
FROM t, rm, pm, tp
"""


def q_bipartite_check_links(sf_dir: str):
    """Two-colorability probe of the synthetic link graph within the
    4-hop crawl horizon: color(v) = parity of the MIN hop distance
    from the multi-source seed set (every 97th doc), conflict = an
    edge whose endpoints are both reached and share a parity — zero
    conflicts ⇔ the reached subgraph is bipartite under BFS layering.
    Frontier-only BFS (graph_ops.bfs_hops) plus two bucketed joins to
    attach endpoint parities — no broadcast of the visited set, so the
    check scales to web-graph V.  The twin unrolls the same 4 rounds
    and counts conflicts over the identical edge bag."""
    from ray.data.aggregate import Sum

    from ...stages import graph_ops

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()

    def edges(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        src = np.repeat(d, 3)
        k = np.tile(np.array([1, 2, 3], dtype=np.int64), len(d))
        dst = (src * 7919 + k * 104729) % n
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    def seed_rows(b: pa.Table) -> pa.Table:
        d = b["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({"v": pa.array(d[d % 97 == 0])})

    edges_ds = docs.map_batches(edges, batch_format="pyarrow")
    seeds = docs.map_batches(seed_rows, batch_format="pyarrow")
    hops = graph_ops.bfs_hops(edges_ds, seeds, rounds=4,
                              approx_num_nodes=n).materialize()

    par = hops.map_batches(
        lambda t: pa.table({
            "v": t["v"],
            "even": pc.cast(pc.equal(
                pc.bit_wise_and(t["hops"].cast(pa.int64()), 1), 0),
                pa.int64())}),
        batch_format="pyarrow")
    reach = par.map_batches(lambda t: pa.table({
        "nr": pa.array([t.num_rows]),
        "ne": pa.array([pc.sum(t["even"]).as_py() or 0])}),
        batch_format="pyarrow") \
        .aggregate(Sum("nr", alias_name="nr"),
                   Sum("ne", alias_name="ne"))
    n_reached = int(reach["nr"])
    n_even = int(reach["ne"])

    src_par = par.map_batches(
        lambda t: pa.table({"src": t["v"], "p_src": t["even"]}),
        batch_format="pyarrow")
    dst_par = par.map_batches(
        lambda t: pa.table({"dst": t["v"], "p_dst": t["even"]}),
        batch_format="pyarrow")
    j1 = relational.bucketed_hash_join(edges_ds, src_par, on="src")
    j2 = relational.bucketed_hash_join(j1, dst_par, on="dst")
    conf = j2.map_batches(lambda t: pa.table({
        "c": pa.array([pc.sum(pc.cast(pc.equal(
            t["p_src"], t["p_dst"]), pa.int64())).as_py() or 0])}),
        batch_format="pyarrow") \
        .aggregate(Sum("c", alias_name="c"))
    conflicts = int(conf["c"])
    return pd.DataFrame([{
        "n_reached": n_reached, "n_even": n_even,
        "n_odd": n_reached - n_even, "conflict_edges": conflicts,
        "bipartite_horizon": 1 if conflicts == 0 else 0}]) \
        .astype({"n_reached": np.int64, "n_even": np.int64,
                 "n_odd": np.int64, "conflict_edges": np.int64,
                 "bipartite_horizon": np.int64})


SQL_BIPARTITE = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
edges AS (
  SELECT d.doc_id AS src,
         (d.doc_id * 7919 + k.k * 104729) % nn.n AS dst
  FROM documents d, (SELECT unnest([1, 2, 3]) AS k) k, nn),
d0 AS (SELECT doc_id AS v, CAST(0 AS BIGINT) AS hops
       FROM documents WHERE doc_id % 97 = 0),
f1 AS (SELECT DISTINCT e.dst AS v FROM edges e
       JOIN d0 ON d0.v = e.src AND d0.hops = 0),
d1 AS (SELECT v, MIN(hops) AS hops FROM (
         SELECT v, hops FROM d0
         UNION ALL SELECT v, CAST(1 AS BIGINT) FROM f1) GROUP BY v),
f2 AS (SELECT DISTINCT e.dst AS v FROM edges e
       JOIN d1 ON d1.v = e.src AND d1.hops = 1),
d2 AS (SELECT v, MIN(hops) AS hops FROM (
         SELECT v, hops FROM d1
         UNION ALL SELECT v, CAST(2 AS BIGINT) FROM f2) GROUP BY v),
f3 AS (SELECT DISTINCT e.dst AS v FROM edges e
       JOIN d2 ON d2.v = e.src AND d2.hops = 2),
d3 AS (SELECT v, MIN(hops) AS hops FROM (
         SELECT v, hops FROM d2
         UNION ALL SELECT v, CAST(3 AS BIGINT) FROM f3) GROUP BY v),
f4 AS (SELECT DISTINCT e.dst AS v FROM edges e
       JOIN d3 ON d3.v = e.src AND d3.hops = 3),
d4 AS (SELECT v, MIN(hops) AS hops FROM (
         SELECT v, hops FROM d3
         UNION ALL SELECT v, CAST(4 AS BIGINT) FROM f4) GROUP BY v),
conf AS (SELECT COUNT(*) AS c FROM edges e
         JOIN d4 a ON a.v = e.src JOIN d4 b ON b.v = e.dst
         WHERE a.hops % 2 = b.hops % 2)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM d4) AS n_reached,
       (SELECT CAST(SUM(CASE WHEN hops % 2 = 0 THEN 1 ELSE 0 END)
                    AS BIGINT) FROM d4) AS n_even,
       (SELECT CAST(SUM(CASE WHEN hops % 2 = 1 THEN 1 ELSE 0 END)
                    AS BIGINT) FROM d4) AS n_odd,
       CAST(conf.c AS BIGINT) AS conflict_edges,
       CAST(CASE WHEN conf.c = 0 THEN 1 ELSE 0 END AS BIGINT)
         AS bipartite_horizon
FROM conf
"""


#: character-class patterns shared verbatim by the Ray kernels and the
#: SQL twin (both RE2) — mixed-script detection catches mojibake and
#: script-spoofing spam that per-language filters miss
_SCRIPT_CLASSES = [("latin", "[A-Za-z]"), ("digit", "[0-9]"),
                   ("space", r"[ \t\n\r]"),
                   ("accent", "[À-ɏ]")]


def q_script_mix_by_source(sf_dir: str):
    """Unicode script/character-class mix per source — the corpus-
    hygiene profile that surfaces mojibake, script-spoofing and
    markup-heavy sources before they poison a tokenizer.  One
    streaming pass: per batch, one arrow C++ ``count_substring_regex``
    per class (RE2, shared pattern text with the DuckDB twin's
    ``regexp_extract_all``) + a utf8_length total, folded through a
    sources-bounded groupby.  ``other`` is the exact remainder of the
    disjoint classes."""
    from ray.data.aggregate import Sum

    docs = _read(sf_dir, "documents", ["source", "text"])

    def partial(t: pa.Table) -> pa.Table:
        cols = {"source": t["source"],
                "n_docs": pa.array(np.ones(t.num_rows,
                                           dtype=np.int64)),
                "chars": pc.utf8_length(t["text"]).cast(pa.int64())}
        for name, pat in _SCRIPT_CLASSES:
            cols[name] = pc.count_substring_regex(
                t["text"], pattern=pat).cast(pa.int64())
        g = pa.table(cols).group_by("source").aggregate(
            [(c, "sum") for c in cols if c != "source"])
        return g.rename_columns(["source"] + [c for c in cols
                                              if c != "source"])

    out = relational.ds_to_table(
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("source").aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("chars", alias_name="chars"),
            *[Sum(n, alias_name=n) for n, _ in _SCRIPT_CLASSES])
    ).to_pandas().sort_values("source").reset_index(drop=True)
    out["other"] = out["chars"] - sum(out[n] for n, _
                                      in _SCRIPT_CLASSES)
    ints = {c: np.int64 for c in out.columns if c != "source"}
    return out.astype(ints)


def _sql_script_mix() -> str:
    cls = ",\n       ".join(
        f"CAST(SUM(length(regexp_extract_all(text, '{pat}')))"
        f" AS BIGINT) AS {name}" for name, pat in _SCRIPT_CLASSES)
    rem = " - ".join(["CAST(SUM(length(text)) AS BIGINT)"]
                     + [f"CAST(SUM(length(regexp_extract_all(text,"
                        f" '{pat}'))) AS BIGINT)"
                        for _, pat in _SCRIPT_CLASSES])
    return f"""
SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(length(text)) AS BIGINT) AS chars,
       {cls},
       {rem} AS other
FROM documents GROUP BY source ORDER BY source
"""


def _sql_bfs_rounds(seed_pred: str, src: str, dst: str,
                    rounds: int, p: str = "d") -> str:
    """Unrolled multi-round BFS CTE chain (frontier expand + MIN-merge
    per round) over the shared synthetic link graph, parameterized by
    direction and CTE-name prefix — the twin generator for every
    bounded-BFS query."""
    out = [f"{p}0 AS (SELECT doc_id AS v, CAST(0 AS BIGINT) AS hops\n"
           f"       FROM documents WHERE {seed_pred})"]
    for r in range(1, rounds + 1):
        out.append(
            f"{p}f{r} AS (SELECT DISTINCT e.{dst} AS v FROM edges e\n"
            f"       JOIN {p}{r-1} p ON p.v = e.{src}"
            f" AND p.hops = {r-1})")
        out.append(
            f"{p}{r} AS (SELECT v, MIN(hops) AS hops FROM (\n"
            f"         SELECT v, hops FROM {p}{r-1}\n"
            f"         UNION ALL SELECT v, CAST({r} AS BIGINT)"
            f" FROM {p}f{r}) GROUP BY v)")
    return ",\n".join(out)


def q_pivot_scc_links(sf_dir: str):
    """Strongly-connected-component membership probe for the pivot
    node (doc 0) within a 4-hop horizon — the FW-BW primitive every
    distributed SCC algorithm (e.g. Orzan/FB-Trim) is built from:
    forward BFS on the edges, backward BFS on the REVERSED edges, and
    the SCC candidates are the intersection.  Both legs reuse the
    frontier-only bfs_hops kernel; the intersection is one bucketed
    semi-join (no reached-set broadcast).  The twin unrolls both
    4-round chains over the identical edge bag."""
    from ...stages import graph_ops, relational as rel

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()

    def edges(flip: bool):
        def f(batch: pa.Table) -> pa.Table:
            d = batch["doc_id"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            src = np.repeat(d, 3)
            k = np.tile(np.array([1, 2, 3], dtype=np.int64), len(d))
            dst = (src * 7919 + k * 104729) % n
            if flip:
                src, dst = dst, src
            return pa.table({"src": pa.array(src),
                             "dst": pa.array(dst)})
        return f

    seeds = rd.from_items([{"v": 0}])
    fwd = graph_ops.bfs_hops(
        docs.map_batches(edges(False), batch_format="pyarrow"),
        seeds, rounds=4, approx_num_nodes=n)
    bwd = graph_ops.bfs_hops(
        docs.map_batches(edges(True), batch_format="pyarrow"),
        seeds, rounds=4, approx_num_nodes=n)
    n_fwd, n_bwd = fwd.count(), bwd.count()
    scc = relational.bucketed_semi_join(
        fwd.select_columns(["v"]), bwd.select_columns(["v"]),
        on="v")
    return pd.DataFrame([{
        "n_fwd": n_fwd, "n_bwd": n_bwd, "n_scc": scc.count()}]) \
        .astype({"n_fwd": np.int64, "n_bwd": np.int64,
                 "n_scc": np.int64})


SQL_PIVOT_SCC = f"""
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
edges AS (
  SELECT d.doc_id AS src,
         (d.doc_id * 7919 + k.k * 104729) % nn.n AS dst
  FROM documents d, (SELECT unnest([1, 2, 3]) AS k) k, nn),
{_sql_bfs_rounds("doc_id = 0", "src", "dst", 4, p="d")},
{_sql_bfs_rounds("doc_id = 0", "dst", "src", 4, p="r")}
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM d4) AS n_fwd,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM r4) AS n_bwd,
       (SELECT CAST(COUNT(*) AS BIGINT)
        FROM d4 JOIN r4 ON d4.v = r4.v) AS n_scc
"""


def q_code_switch_docs(sf_dir: str):
    """Code-switching detection — the corpus-hygiene signal language-ID
    alone misses: a doc whose stopword profile fires for TWO OR MORE
    languages (≥3 hits each) is mixed-language (translation pairs,
    spam, boilerplate splices) and most LLM-data recipes route it
    separately.  Same six vectorized alternation-count passes as
    LangId (shared `_LANG_PROFILES`, so the twin is GENERATED from the
    same dict and cannot drift); primary language by first-max argmax,
    per-language (n_docs, n_switched) from a langs-bounded fold."""
    import re as _re

    from ray.data.aggregate import Sum

    docs = _read(sf_dir, "documents", ["text"])
    langs = list(text._LANG_PROFILES)
    res = [
        _re.compile(r"\b(?:" + "|".join(
            sorted(text._LANG_PROFILES[lg], key=len, reverse=True))
            + r")\b") for lg in langs]

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        low = b["text"].str.lower()
        counts = np.stack([low.str.count(r).to_numpy()
                           for r in res], axis=1)
        best = counts.argmax(axis=1)        # first max wins
        pred = np.where(counts.max(axis=1) == 0, "und",
                        np.array(langs)[best])
        switched = ((counts >= 3).sum(axis=1) >= 2).astype(np.int64)
        return pd.DataFrame({"lang": pred, "n_docs": 1,
                             "n_switched": switched}) \
            .groupby("lang", sort=False).sum().reset_index()

    out = relational.ds_to_table(
        docs.map_batches(partial, batch_format="pandas")
        .groupby("lang").aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("n_switched", alias_name="n_switched"))
    ).to_pandas().sort_values("lang").reset_index(drop=True)
    return out.astype({"n_docs": np.int64, "n_switched": np.int64})


def _sql_code_switch() -> str:
    langs = list(text._LANG_PROFILES)
    pats = {lg: r"\b(?:" + "|".join(
        sorted(prof, key=len, reverse=True)) + r")\b"
        for lg, prof in text._LANG_PROFILES.items()}
    counts = ",\n    ".join(
        f"length(regexp_extract_all(lower(text), '{pats[lg]}'))"
        f" AS c_{lg}" for lg in langs)
    all_c = ", ".join(f"c_{lg}" for lg in langs)
    branches = []
    for i, lg in enumerate(langs):
        conds = " AND ".join(f"c_{lg} >= c_{o}"
                             for o in langs[i + 1:])
        branches.append(f"WHEN {conds or 'TRUE'} THEN '{lg}'")
    case = "\n      ".join(branches)
    sw = " + ".join(f"CASE WHEN c_{lg} >= 3 THEN 1 ELSE 0 END"
                    for lg in langs)
    return f"""
WITH scored AS (
  SELECT doc_id,
    {counts}
  FROM documents),
pred AS (
  SELECT CASE WHEN GREATEST({all_c}) = 0 THEN 'und'
      {case}
    END AS lang,
    CASE WHEN {sw} >= 2 THEN 1 ELSE 0 END AS sw
  FROM scored)
SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(sw) AS BIGINT) AS n_switched
FROM pred GROUP BY 1 ORDER BY 1
"""


def q_roc_points_doc_score(sf_dir: str):
    """ROC operating points for the logreg document scorer at 19 fixed
    thresholds (0.05 … 0.95) — the threshold-selection table behind
    every deployed classifier (AUC alone can't pick a cutoff).  One
    streaming pass: per batch a (rows × 19) vectorized comparison
    folds into exact (tp, fp) partials per threshold; tn/fn derive
    from the exact class totals; tpr/fpr are the mirrored divisions."""
    from ray.data.aggregate import Sum

    THR = [round(0.05 * i, 2) for i in range(1, 20)]
    scored = _doc_logreg_scored(sf_dir)
    thr = np.array(THR)

    def partial(t: pa.Table) -> pa.Table:
        s = t["score"].to_numpy(zero_copy_only=False)
        lbl = t["label"].to_numpy(zero_copy_only=False)
        ge = s[:, None] >= thr[None, :]
        tp = (ge & (lbl == 1)[:, None]).sum(axis=0)
        fp = (ge & (lbl == 0)[:, None]).sum(axis=0)
        return pa.table({"thr": pa.array(thr),
                         "tp": pa.array(tp.astype(np.int64)),
                         "fp": pa.array(fp.astype(np.int64)),
                         "np_": pa.array(np.full(19, int(
                             (lbl == 1).sum()), dtype=np.int64)),
                         "nn_": pa.array(np.full(19, int(
                             (lbl == 0).sum()), dtype=np.int64))})

    agg = relational.ds_to_table(
        scored.map_batches(partial, batch_format="pyarrow")
        .groupby("thr").aggregate(
            Sum("tp", alias_name="tp"), Sum("fp", alias_name="fp"),
            Sum("np_", alias_name="npos"),
            Sum("nn_", alias_name="nneg"))
    ).to_pandas().sort_values("thr").reset_index(drop=True)
    agg["fn"] = agg["npos"] - agg["tp"]
    agg["tn"] = agg["nneg"] - agg["fp"]
    agg["tpr"] = np.round(agg["tp"].astype(np.float64)
                          / agg["npos"].astype(np.float64), 6)
    agg["fpr"] = np.round(agg["fp"].astype(np.float64)
                          / agg["nneg"].astype(np.float64), 6)
    out = agg[["thr", "tp", "fp", "fn", "tn", "tpr", "fpr"]]
    return out.astype({c: np.int64 for c in
                       ["tp", "fp", "fn", "tn"]})


def _sql_roc_points() -> str:
    thrs = ", ".join(repr(round(0.05 * i, 2)) for i in range(1, 20))
    return f"""
WITH f AS (
  SELECT n_chars / 1000.0 AS x1,
         len(string_split(text, ' ')) / 100.0 AS x2,
         CASE WHEN n_chars > 297 THEN 1 ELSE 0 END AS label
  FROM documents),
s AS (SELECT ROUND(1.0 / (1.0 + exp(-(0.25 + 0.8 * x1 - 0.5 * x2))),
             6) AS score, label FROM f),
t AS (SELECT unnest([{thrs}]) AS thr),
c AS (SELECT t.thr,
             CAST(SUM(CASE WHEN s.score >= t.thr AND s.label = 1
                      THEN 1 ELSE 0 END) AS BIGINT) AS tp,
             CAST(SUM(CASE WHEN s.score >= t.thr AND s.label = 0
                      THEN 1 ELSE 0 END) AS BIGINT) AS fp,
             CAST(SUM(s.label) AS BIGINT) AS npos,
             CAST(SUM(1 - s.label) AS BIGINT) AS nneg
      FROM t, s GROUP BY 1)
SELECT thr, tp, fp, npos - tp AS fn, nneg - fp AS tn,
       ROUND(CAST(tp AS DOUBLE) / npos, 6) AS tpr,
       ROUND(CAST(fp AS DOUBLE) / nneg, 6) AS fpr
FROM c ORDER BY thr
"""


def _shingle_set_u64(t: str, k: int = 5) -> np.ndarray:
    """Sorted unique u64 hashes of the character k-grams (the same
    codepoint polynomial fold the jaccard kernel uses — equality to a
    string-shingle oracle holds up to a 2⁻⁶⁴ collision)."""
    b = np.frombuffer(t.encode("utf-32-le"),
                      dtype=np.uint32).astype(np.uint64)
    if len(b) < k:
        return np.unique(dd.word_hashes_u64([t]))
    n = len(b) - k + 1
    hs = np.zeros(n, dtype=np.uint64)
    prime = np.uint64(1099511628211)
    with np.errstate(over="ignore"):
        for j in range(k):
            hs = hs * prime + b[j:j + n]
    return np.unique(hs)


def q_containment_pairs_sampled(sf_dir: str):
    """Asymmetric set CONTAINMENT |A∩B|/|A| over the deterministic
    pair sample (i ↔ i+250) — the quote/excerpt detector symmetric
    Jaccard misses: a short doc fully embedded in a long one scores
    containment 1.0 but Jaccard ≈ |A|/|B|.  Candidate texts (exactly
    doc_ids < 500, pruned AT THE READ) broadcast once; shingle sets
    are the shared codepoint polynomial; intersection and both sizes
    stay exact ints with the two directed ratios as the mirrored
    divisions."""
    import pyarrow.dataset as pads

    docs = _read(sf_dir, "documents", ["doc_id", "text"],
                 filter=pads.field("doc_id") < 500)
    texts = relational.ds_to_table(docs)
    tref = ray.put(texts)
    pairs = docs.filter(expr="doc_id < 250").map_batches(
        lambda t: pa.table({"a": t["doc_id"],
                            "b": pc.add(t["doc_id"], 250)}),
        batch_format="pyarrow")
    _idx: dict = {}

    def score(batch: pa.Table) -> pa.Table:
        state = _idx.get("t")
        if state is None:
            tbl = ray.get(tref)
            state = _idx["t"] = (
                {k: i for i, k in enumerate(
                    tbl["doc_id"].to_pylist())}, tbl["text"])
        pos, txt = state
        rows = []
        for a, b in zip(batch["a"].to_pylist(),
                        batch["b"].to_pylist()):
            sa = _shingle_set_u64(txt[pos[a]].as_py())
            sb = _shingle_set_u64(txt[pos[b]].as_py())
            ni = int(np.intersect1d(sa, sb,
                                    assume_unique=True).size)
            rows.append({"a": a, "b": b, "ni": ni,
                         "na": int(sa.size), "nb": int(sb.size)})
        df = pd.DataFrame(rows)
        df["c_ab"] = np.round(df["ni"] / df["na"], 4)
        df["c_ba"] = np.round(df["ni"] / df["nb"], 4)
        return pa.Table.from_pandas(df, preserve_index=False)

    out = relational.ds_to_table(
        pairs.map_batches(score, batch_format="pyarrow")
    ).to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    return out.astype({"a": np.int64, "b": np.int64, "ni": np.int64,
                       "na": np.int64, "nb": np.int64})


SQL_CONTAINMENT = """
WITH pairs AS (
  SELECT doc_id AS a, doc_id + 250 AS b FROM documents
  WHERE doc_id < 250),
sh AS (
  SELECT DISTINCT doc_id, substr(text, CAST(i AS INT), 5) AS g
  FROM (SELECT doc_id, text,
               unnest(generate_series(1, GREATEST(length(text) - 4,
                                                  1))) AS i
        FROM documents WHERE doc_id < 500)),
sizes AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n
          FROM sh GROUP BY doc_id),
inter AS (
  SELECT p.a, p.b, CAST(COUNT(*) AS BIGINT) AS ni
  FROM pairs p JOIN sh x ON x.doc_id = p.a
               JOIN sh y ON y.doc_id = p.b AND y.g = x.g
  GROUP BY 1, 2)
SELECT p.a, p.b, COALESCE(i.ni, 0) AS ni, sa.n AS na, sb.n AS nb,
       ROUND(CAST(COALESCE(i.ni, 0) AS DOUBLE) / sa.n, 4) AS c_ab,
       ROUND(CAST(COALESCE(i.ni, 0) AS DOUBLE) / sb.n, 4) AS c_ba
FROM pairs p
JOIN sizes sa ON sa.doc_id = p.a
JOIN sizes sb ON sb.doc_id = p.b
LEFT JOIN inter i ON i.a = p.a AND i.b = p.b
ORDER BY 1, 2
"""


def q_length_percentile_by_source(sf_dir: str):
    """Mean GLOBAL length percentile per source — the drift detector
    that catches a crawl whose documents sit systematically high or
    low in the corpus length distribution.  percent_rank's numerator
    (RANK − 1 = docs strictly shorter) is an exact integer, so the
    per-source sums fold exactly from one (source × distinct-length)
    bounded count reduce + the global value histogram; the mean is
    ONE mirrored division per source."""
    from ray.data.aggregate import Sum

    docs = _read(sf_dir, "documents", ["source", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({
            "source": t["source"].to_numpy(zero_copy_only=False),
            "len": t["n_chars"].to_numpy(zero_copy_only=False),
            "n": 1}).groupby(["source", "len"], sort=False) \
            .sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cnt = relational.ds_to_table(
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby(["source", "len"]).aggregate(Sum("n",
                                                  alias_name="n"))
    ).to_pandas()
    glob = cnt.groupby("len")["n"].sum().sort_index()
    below = glob.cumsum().shift(1, fill_value=0)   # strictly shorter
    N = int(glob.sum())
    cnt["rb"] = cnt["len"].map(below).astype(np.int64) * cnt["n"]
    out = cnt.groupby("source") \
        .agg(n_docs=("n", "sum"), sum_rank_below=("rb", "sum")) \
        .reset_index().sort_values("source").reset_index(drop=True)
    out["mean_pct"] = np.round(
        out["sum_rank_below"].astype(np.float64)
        / (out["n_docs"].astype(np.float64) * (N - 1)), 6)
    return out.astype({"n_docs": np.int64,
                       "sum_rank_below": np.int64})


SQL_LENGTH_PCT = """
WITH r AS (SELECT source,
                  RANK() OVER (ORDER BY n_chars) - 1 AS rb
           FROM documents),
nn AS (SELECT COUNT(*) AS n FROM documents)
SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(rb) AS BIGINT) AS sum_rank_below,
       ROUND(CAST(SUM(rb) AS DOUBLE) / (COUNT(*) * (nn.n - 1)), 6)
         AS mean_pct
FROM r, nn GROUP BY source, nn.n ORDER BY source
"""


def q_wasserstein_length_drift(sf_dir: str):
    """Exact Wasserstein-1 (earth-mover) distance between each
    source's document-length distribution and the REST of the corpus
    — the drift metric that, unlike KS (sup of CDF gap) or PSI
    (binned), integrates the WHOLE CDF gap and so catches broad
    small shifts.  One (source × distinct-length)-bounded count
    reduce; the finish runs on the tiny histogram with ARBITRARY
    PRECISION ints: W1·n_s·n_r = Σ_v |cum_s(v)·n_r − cum_r(v)·n_s|
    ·gap(v), so the one mirrored division per source is the only
    float (the SQL twin folds the same identity in HUGEINT)."""
    from ray.data.aggregate import Sum

    docs = _read(sf_dir, "documents", ["source", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({
            "source": t["source"].to_numpy(zero_copy_only=False),
            "len": t["n_chars"].to_numpy(zero_copy_only=False),
            "n": 1}).groupby(["source", "len"], sort=False) \
            .sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cnt = relational.ds_to_table(
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby(["source", "len"]).aggregate(Sum("n", alias_name="n"))
    ).to_pandas()
    sup = np.sort(cnt["len"].unique())          # global union support
    gap = np.diff(sup).astype(object)           # python-int gaps
    glob = cnt.groupby("len")["n"].sum().reindex(sup, fill_value=0)
    cum_g = glob.cumsum().to_numpy(dtype=np.int64).astype(object)
    N = int(glob.sum())
    rows = []
    for src, g in cnt.groupby("source"):
        ns = int(g["n"].sum())
        nr = N - ns
        if nr == 0:                  # single-source corpus: no "rest"
            continue
        cs = g.set_index("len")["n"].reindex(sup, fill_value=0) \
            .cumsum().to_numpy(dtype=np.int64).astype(object)
        cr = cum_g - cs
        scaled = int(np.sum(np.abs(cs[:-1] * nr - cr[:-1] * ns)
                            * gap))             # exact, unbounded ints
        rows.append({"source": src, "n_docs": ns, "scaled": scaled,
                     "w1": round(scaled / (ns * nr), 6)})
    out = pd.DataFrame(rows).sort_values("source").reset_index(drop=True)
    return out.astype({"n_docs": np.int64, "scaled": np.int64})


SQL_WASSERSTEIN = """
WITH c AS (SELECT source, n_chars AS len, CAST(COUNT(*) AS BIGINT) AS n
           FROM documents GROUP BY 1, 2),
g AS (SELECT len, SUM(n) AS n FROM c GROUP BY 1),
nn AS (SELECT SUM(n) AS n FROM g),
s AS (SELECT source, SUM(n) AS ns FROM c GROUP BY 1),
sup AS (SELECT s.source, s.ns, g.len, COALESCE(c.n, 0) AS cs_at,
               g.n AS cg_at
        FROM s CROSS JOIN g
        LEFT JOIN c ON c.source = s.source AND c.len = g.len),
cum AS (SELECT source, ns, len,
               SUM(cs_at) OVER (PARTITION BY source ORDER BY len) AS cs,
               SUM(cg_at) OVER (PARTITION BY source ORDER BY len) AS cg,
               LEAD(len) OVER (PARTITION BY source ORDER BY len) AS nxt
        FROM sup)
SELECT source, CAST(ns AS BIGINT) AS n_docs,
       CAST(SUM(ABS(CAST(cs AS HUGEINT) * (nn.n - ns)
                    - CAST(cg - cs AS HUGEINT) * ns)
                * (nxt - len)) AS BIGINT) AS scaled,
       ROUND(CAST(SUM(ABS(CAST(cs AS HUGEINT) * (nn.n - ns)
                          - CAST(cg - cs AS HUGEINT) * ns)
                      * (nxt - len)) AS DOUBLE)
             / (ns * (nn.n - ns)), 6) AS w1
FROM cum, nn
WHERE nxt IS NOT NULL AND ns < nn.n
GROUP BY source, ns, nn.n
ORDER BY source
"""


def q_powerlaw_alpha_links(sf_dir: str):
    """Continuous-approximation MLE of the power-law exponent of the
    link graph's in-degree distribution (Clauset-Shalizi-Newman with
    x_min = 1): α = 1 + N / Σ_d c_d·ln(d/0.5).  The fold runs over
    the DEGREE HISTOGRAM (bounded by max in-degree, not node count) —
    counts exact from the shared two-stage degree reduce, per-degree
    ln terms mirrored against the SQL text, division the one float
    finish (the mutual-info convention)."""
    h = relational.ds_to_table(
        q_degree_histogram_links(sf_dir)).to_pandas()
    deg = h["deg"].to_numpy(dtype=np.int64)
    nc = h["n_nodes"].to_numpy(dtype=np.int64)
    N = int(nc.sum())
    s = float(np.sum(nc.astype(np.float64) * np.log(2.0 * deg)))
    return pd.DataFrame([{
        "n_nodes": N, "max_deg": int(deg.max()),
        "sum_log": np.round(s, 6),
        "alpha": np.round(1.0 + N / s, 6)}]) \
        .astype({"n_nodes": np.int64, "max_deg": np.int64})


SQL_POWERLAW_ALPHA = """
WITH nn AS (SELECT COUNT(*) AS cnt FROM documents),
e AS (
  SELECT doc_id AS src, (doc_id * 7919 + k * 104729) % cnt AS dst
  FROM documents, nn, (SELECT unnest([1, 2, 3]) AS k) t),
indeg AS (SELECT dst, COUNT(*) AS deg FROM e GROUP BY dst),
h AS (SELECT deg, CAST(COUNT(*) AS BIGINT) AS n_nodes
      FROM indeg GROUP BY deg),
t AS (SELECT SUM(n_nodes) AS n, MAX(deg) AS md,
             SUM(n_nodes * LN(2.0 * deg)) AS s FROM h)
SELECT CAST(n AS BIGINT) AS n_nodes, CAST(md AS BIGINT) AS max_deg,
       ROUND(s, 6) AS sum_log, ROUND(1.0 + n / s, 6) AS alpha
FROM t
"""


def q_brier_decomposition(sf_dir: str):
    """Murphy decomposition of the Brier score for the shared logreg
    document scorer: reliability (calibration gap), resolution
    (discrimination) and uncertainty over 10 equal-width score bins,
    plus the raw Brier itself.  Every aggregate is EXACT integers —
    6-dp scores make s6 = score·10⁶ an int, so Σ(s6−10⁶·label)², bin
    counts, bin label sums and bin score sums all fold losslessly in
    one bounded (10-bin) reduce; the four metrics finish with per-bin
    float terms mirroring the SQL text (int64 partials bound the safe
    corpus at ~10⁷ docs per run; the twin's HUGEINT has no bound)."""
    from ray.data.aggregate import Sum

    scored = _doc_logreg_scored(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        s6 = np.round(t["score"].to_numpy(zero_copy_only=False)
                      * 1e6).astype(np.int64)
        lbl = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = s6 - 1000000 * lbl
        g = pd.DataFrame({"bin": np.minimum(s6 // 100000, 9),
                          "n": 1, "l": lbl, "ss": s6, "sq": d * d}) \
            .groupby("bin", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    b = relational.ds_to_table(
        scored.map_batches(partial, batch_format="pyarrow")
        .groupby("bin").aggregate(Sum("n", alias_name="n"),
                                  Sum("l", alias_name="l"),
                                  Sum("ss", alias_name="ss"),
                                  Sum("sq", alias_name="sq"))
    ).to_pandas()
    N, L = int(b["n"].sum()), int(b["l"].sum())
    brier = sum(float(v) for v in b["sq"]) / (1e12 * N)
    rel = sum(float(int(r.ss) - 1000000 * int(r.l))
              * (int(r.ss) - 1000000 * int(r.l)) / (1e12 * int(r.n))
              for r in b.itertuples()) / N
    res = sum(float(int(r.l) * N - L * int(r.n))
              * (int(r.l) * N - L * int(r.n)) / int(r.n)
              for r in b.itertuples()) / (float(N) * N * N)
    unc = float(L) * (N - L) / (float(N) * N)
    return pd.DataFrame([{
        "n": N, "n_pos": L, "brier": np.round(brier, 6),
        "reliability": np.round(rel, 6),
        "resolution": np.round(res, 6),
        "uncertainty": np.round(unc, 6)}]) \
        .astype({"n": np.int64, "n_pos": np.int64})


SQL_BRIER = """
WITH f AS (
  SELECT n_chars / 1000.0 AS x1,
         len(string_split(text, ' ')) / 100.0 AS x2,
         CASE WHEN n_chars > 297 THEN 1 ELSE 0 END AS label
  FROM documents),
s AS (SELECT CAST(ROUND(1.0 / (1.0 + exp(-(0.25 + 0.8 * x1 - 0.5 * x2)))
                        * 1000000) AS BIGINT) AS s6,
             CAST(label AS BIGINT) AS label FROM f),
b AS (SELECT LEAST(s6 // 100000, 9) AS bin,
             CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(label) AS BIGINT) AS l,
             CAST(SUM(s6) AS BIGINT) AS ss,
             SUM(CAST(s6 - 1000000 * label AS HUGEINT)
                 * (s6 - 1000000 * label)) AS sq
      FROM s GROUP BY 1),
t AS (SELECT CAST(SUM(n) AS BIGINT) AS nn,
             CAST(SUM(l) AS BIGINT) AS ll FROM b)
SELECT t.nn AS n, t.ll AS n_pos,
       ROUND(CAST(SUM(sq) AS DOUBLE) / (1e12 * t.nn), 6) AS brier,
       ROUND(SUM(CAST(ss - 1000000 * l AS DOUBLE)
                 * (ss - 1000000 * l) / (1e12 * n)) / t.nn, 6)
         AS reliability,
       ROUND(SUM(CAST(l * t.nn - t.ll * n AS DOUBLE)
                 * (l * t.nn - t.ll * n) / n)
             / (CAST(t.nn AS DOUBLE) * t.nn * t.nn), 6) AS resolution,
       ROUND(CAST(t.ll AS DOUBLE) * (t.nn - t.ll)
             / (CAST(t.nn AS DOUBLE) * t.nn), 6) AS uncertainty
FROM b, t GROUP BY t.nn, t.ll
"""


def q_source_set_cover(sf_dir: str):
    """Greedy weighted set cover: which 5 crawl sources cover the most
    vocabulary — the data-curation question behind 'which feeds can we
    drop'.  One corpus pass builds distinct (source, word) pairs; the
    word-bucket fold packs each word's source set into a ≤2²⁰ BITMASK
    (Σ 2^idx over distinct sources = OR), and the mask HISTOGRAM — the
    only thing the driver sees — is bounded by distinct masks, never
    vocabulary.  The 5 greedy rounds then run vectorized on that tiny
    table with exact integer coverage counts; ties break to the
    lexicographically first source on BOTH sides.  The twin unrolls
    the same 5 rounds as chained scalar-subquery CTEs."""
    from ray.data.aggregate import Count, Sum

    docs = _read(sf_dir, "documents", ["source", "text"])

    def pw(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t["text"], pattern=" ")
        n = pc.list_value_length(parts).to_numpy(zero_copy_only=False)
        df = pd.DataFrame({
            "source": np.repeat(
                t["source"].to_numpy(zero_copy_only=False), n),
            "w": pc.list_flatten(parts).to_numpy(
                zero_copy_only=False)}).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    pairs = docs.map_batches(pw, batch_format="pyarrow") \
        .groupby(["source", "w"]).aggregate(Count()) \
        .select_columns(["source", "w"]).materialize()
    srcs = sorted(
        relational.ds_to_table(
            pairs.map_batches(
                lambda t: pa.table({"source": pc.unique(t["source"])}),
                batch_format="pyarrow")
            .groupby("source").aggregate(Count())
        )["source"].to_pylist())
    idx_of = {s: i for i, s in enumerate(srcs)}

    def bits(t: pa.Table) -> pa.Table:
        b = np.array([1 << idx_of[s]
                      for s in t["source"].to_pylist()],
                     dtype=np.int64)
        return pa.table({"w": t["w"], "bit": pa.array(b)})

    def mask_partial(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({"mask": t["sum(bit)"].to_numpy(
            zero_copy_only=False).astype(np.int64), "c": 1}) \
            .groupby("mask", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    mh = relational.ds_to_table(
        pairs.map_batches(bits, batch_format="pyarrow")
        .groupby("w").aggregate(Sum("bit"))
        .map_batches(mask_partial, batch_format="pyarrow")
        .groupby("mask").aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    masks = mh["mask"].to_numpy(np.int64)
    cnts = mh["c"].to_numpy(np.int64)
    cov, cum, rows = 0, 0, []
    for rnd in range(1, min(5, len(srcs)) + 1):
        uncovered = (masks & cov) == 0
        inc = np.array([
            int(cnts[uncovered & ((masks >> j) & 1 == 1)].sum())
            if not (cov >> j) & 1 else -1
            for j in range(len(srcs))], dtype=np.int64)
        pick = int(np.argmax(inc))          # first max = smallest idx
        cum += int(inc[pick])
        rows.append({"round": rnd, "source": srcs[pick],
                     "new_words": int(inc[pick]), "cum_words": cum})
        cov |= 1 << pick
    return pd.DataFrame(rows).astype({
        "round": np.int64, "new_words": np.int64,
        "cum_words": np.int64})


def _sql_setcover_rounds(k: int = 5) -> str:
    """Unrolled greedy set-cover twin: round r's incremental coverage
    conditions on the scalar covered-mask CTE c{r-1} (picked sources
    excluded via their own bit), mirroring the Ray argmax tie rule
    with ORDER BY inc DESC, idx."""
    parts = ["""WITH pw AS (
  SELECT DISTINCT source, w
  FROM (SELECT source, unnest(string_split(text, ' ')) AS w
        FROM documents)),
si AS (SELECT source,
              CAST(ROW_NUMBER() OVER (ORDER BY source) - 1 AS BIGINT)
                AS idx
       FROM (SELECT DISTINCT source FROM pw)),
wm AS (SELECT w, SUM(CAST(1 AS BIGINT) << idx) AS mask
       FROM pw JOIN si USING (source) GROUP BY w),
mh AS (SELECT mask, CAST(COUNT(*) AS BIGINT) AS c FROM wm
       GROUP BY mask),
c0 AS (SELECT CAST(0 AS BIGINT) AS m)"""]
    for r in range(1, k + 1):
        parts.append(f""",
g{r} AS (SELECT i.idx,
                SUM(CASE WHEN (mh.mask >> i.idx) & 1 = 1
                          AND (mh.mask & (SELECT m FROM c{r - 1})) = 0
                         THEN mh.c ELSE 0 END) AS inc
         FROM si i CROSS JOIN mh
         WHERE ((SELECT m FROM c{r - 1}) >> i.idx) & 1 = 0
         GROUP BY i.idx),
p{r} AS (SELECT idx, inc FROM g{r} ORDER BY inc DESC, idx LIMIT 1),
c{r} AS (SELECT (SELECT m FROM c{r - 1})
                | (CAST(1 AS BIGINT) << (SELECT idx FROM p{r})) AS m)""")
    union = "\nUNION ALL ".join(
        f"SELECT {r} AS round, idx, inc FROM p{r}"
        for r in range(1, k + 1))
    parts.append(f""",
u AS ({union})
SELECT u.round, si.source, CAST(u.inc AS BIGINT) AS new_words,
       CAST(SUM(u.inc) OVER (ORDER BY u.round
                             ROWS UNBOUNDED PRECEDING) AS BIGINT)
         AS cum_words
FROM u JOIN si USING (idx) ORDER BY u.round""")
    return "".join(parts)


def q_mmr_diversified_topk(sf_dir: str):
    """Maximal Marginal Relevance retrieval: pick 5 of the query's
    top-20 cosine neighbours maximizing 0.7·relevance −
    0.3·max-similarity-to-already-picked — the diversified re-ranking
    every RAG pipeline bolts onto raw ANN (raw top-k returns 5 copies
    of the same passage).  Distributed leg: one streaming relevance
    scan against the broadcast query vector with per-batch local
    top-20 prune (exact — any global top-20 row is in its batch's
    top-20); the greedy runs on the 20 survivors.  The twin unrolls
    the same 5 rounds with scalar-subquery MAX over the picked CTEs;
    output is ids only (float cosines stay out of the hash, the ANN
    precedent)."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qrow = emb.filter(expr="vec_id == 0").take_all()
    qv = np.asarray(qrow[0]["embedding"], dtype=np.float64)
    qn = np.linalg.norm(qv)

    def local_top(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = ids != 0
        if not keep.any():
            return pa.table({"vec_id": pa.array([], type=pa.int64()),
                             "rel": pa.array([], type=pa.float64()),
                             "embedding": t["embedding"].slice(0, 0)})
        m = np.stack([np.asarray(v, dtype=np.float64)
                      for v, k in zip(t["embedding"].to_pylist(), keep)
                      if k])
        ids = ids[keep]
        rel = (m @ qv) / (np.linalg.norm(m, axis=1) * qn)
        order = np.lexsort((ids, -rel))[:20]
        idx_all = np.flatnonzero(keep)[order]
        return pa.table({"vec_id": pa.array(ids[order]),
                         "rel": pa.array(rel[order]),
                         "embedding": t["embedding"].take(
                             pa.array(idx_all))})

    cand = relational.ds_to_table(
        emb.map_batches(local_top, batch_format="pyarrow")).to_pandas()
    cand = cand.sort_values(["rel", "vec_id"],
                            ascending=[False, True]).head(20) \
        .reset_index(drop=True)
    vecs = np.stack([np.asarray(v, dtype=np.float64)
                     for v in cand["embedding"]])
    norms = np.linalg.norm(vecs, axis=1)
    sims = (vecs @ vecs.T) / np.outer(norms, norms)
    rel = cand["rel"].to_numpy(np.float64)
    ids = cand["vec_id"].to_numpy(np.int64)
    picked: list[int] = []
    rows = []
    for rnd in range(1, min(5, len(ids)) + 1):   # <5 candidates: the
        if picked:                               # twin emits no row
            sc = 0.7 * rel - 0.3 * sims[:, picked].max(axis=1)
        else:
            sc = rel.copy()
        sc[picked] = -np.inf
        # argmax with vec_id tiebreak = first max in (sc desc, id asc)
        order = np.lexsort((ids, -sc))
        pick = int(order[0])
        picked.append(pick)
        rows.append({"rnk": rnd, "vec_id": int(ids[pick])})
    return pd.DataFrame(rows).astype({"rnk": np.int64,
                                      "vec_id": np.int64})


def _sql_mmr_rounds(k: int = 5) -> str:
    """Unrolled MMR twin: round r scores every unpicked top-20
    candidate 0.7·rel − 0.3·MAX(sim to the picked-so-far union CTE);
    round 1 is pure relevance (the Ray side's empty-picked branch)."""
    parts = ["""WITH q AS (SELECT embedding AS qe FROM embeddings
           WHERE vec_id = 0),
rel AS (SELECT e.vec_id, e.embedding,
               list_cosine_similarity(q.qe, e.embedding) AS rel
        FROM embeddings e, q WHERE e.vec_id <> 0),
top AS (SELECT vec_id, embedding, rel
        FROM (SELECT vec_id, embedding, rel,
                     ROW_NUMBER() OVER (ORDER BY rel DESC, vec_id)
                       AS rn
              FROM rel)
        WHERE rn <= 20),
p1 AS (SELECT vec_id, embedding FROM top
       ORDER BY rel DESC, vec_id LIMIT 1)"""]
    for r in range(2, k + 1):
        union = "\n            UNION ALL ".join(
            f"SELECT vec_id, embedding FROM p{i}"
            for i in range(1, r))
        parts.append(f""",
g{r} AS (SELECT t.vec_id, t.embedding,
                0.7 * t.rel
                - 0.3 * (SELECT MAX(list_cosine_similarity(
                                      t.embedding, pk.embedding))
                         FROM ({union}) pk) AS sc
         FROM top t
         WHERE t.vec_id NOT IN (SELECT vec_id FROM ({union}) px)),
p{r} AS (SELECT vec_id, embedding FROM g{r}
         ORDER BY sc DESC, vec_id LIMIT 1)""")
    union_out = "\nUNION ALL ".join(
        f"SELECT {r} AS rnk, vec_id FROM p{r}" for r in range(1, k + 1))
    parts.append(f"""
SELECT CAST(rnk AS BIGINT) AS rnk, vec_id FROM ({union_out})
ORDER BY rnk""")
    return "".join(parts)


def q_exact_heavy_hitters(sf_dir: str):
    """Top-10 corpus words by EXACT count at bounded memory — the
    sketch-then-verify pattern: pass 1's Misra-Gries summary (4096
    counters) provably contains every word with frequency >
    N/4097; pass 2 re-counts ONLY the ≤4096 candidates exactly
    (broadcast membership, one more streaming pass), and the
    certificate `provably_complete` = (10th exact count > N/4097)
    turns the approximate sketch into an exact, PROVEN top-k without
    ever shuffling the full vocabulary.  Ties break (count DESC, word
    ASC) on both sides."""
    from ray.data.aggregate import Sum

    from ...stages import sketches

    docs = _read(sf_dir, "documents", ["text"])
    mg = sketches.mg_word_summary(docs, text_col="text",
                                  capacity=4096)
    cand = set(mg["word"].to_pylist())
    cref = ray.put(cand)
    _state: dict = {}

    def recount(t: pa.Table) -> pa.Table:
        cs = _state.get("c")
        if cs is None:
            cs = _state["c"] = ray.get(cref)
        flat = pc.list_flatten(pc.split_pattern(t["text"],
                                                pattern=" "))
        w = flat.to_numpy(zero_copy_only=False)
        total = len(w)
        mask = np.fromiter((x in cs for x in w), np.bool_, total)
        g = pd.DataFrame({"word": w[mask], "n": 1}) \
            .groupby("word", sort=False).sum().reset_index()
        g = pd.concat([g, pd.DataFrame(
            [{"word": "\x00total", "n": total}])], ignore_index=True)
        return pa.Table.from_pandas(g, preserve_index=False)

    cnt = relational.ds_to_table(
        docs.map_batches(recount, batch_format="pyarrow")
        .groupby("word").aggregate(Sum("n", alias_name="n"))
    ).to_pandas()
    N = int(cnt.loc[cnt["word"] == "\x00total", "n"].iloc[0])
    cnt = cnt[cnt["word"] != "\x00total"]
    top = cnt.sort_values(["n", "word"],
                          ascending=[False, True]).head(10) \
        .reset_index(drop=True)
    proven = bool(float(top["n"].iloc[-1]) > N / 4097.0)
    return pd.DataFrame({
        "rnk": np.arange(1, len(top) + 1, dtype=np.int64),
        "word": top["word"].to_numpy(),
        "cnt": top["n"].to_numpy(np.int64),
        "provably_complete": np.full(len(top), proven)})


SQL_EXACT_HH = """
WITH wc AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS c
            FROM (SELECT unnest(string_split(text, ' ')) AS w
                  FROM documents)
            GROUP BY w),
nn AS (SELECT SUM(c) AS n FROM wc),
top AS (SELECT w, c,
               ROW_NUMBER() OVER (ORDER BY c DESC, w) AS rn
        FROM wc)
SELECT CAST(rn AS BIGINT) AS rnk, w AS word, c AS cnt,
       (SELECT MIN(c) FROM top WHERE rn <= 10)
         > (SELECT n FROM nn) / 4097.0 AS provably_complete
FROM top WHERE rn <= 10 ORDER BY rn
"""


def q_harmonic_centrality_pivots(sf_dir: str):
    """Harmonic centrality (bounded 3-hop) for 5 pivot nodes: h(p) =
    Σ_{d(p,v)≤3} 1/d — the centrality that, unlike closeness, stays
    well-defined on disconnected graphs.  Per pivot one frontier-only
    BFS (the shared bfs_hops kernel); hop-ring sizes n1/n2/n3 are
    exact ints and the harmonic score is the one mirrored float
    expression n1 + n2/2 + n3/3.  The twin unrolls five 3-round BFS
    chains from the shared generator."""
    import ray.data as rd

    from ...stages import graph_ops

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()

    def edges(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        src = np.repeat(d, 3)
        k = np.tile(np.array([1, 2, 3], dtype=np.int64), len(d))
        return pa.table({"src": pa.array(src),
                         "dst": pa.array((src * 7919 + k * 104729) % n)})

    e = docs.map_batches(edges, batch_format="pyarrow").materialize()
    rows = []
    for p in range(5):
        seeds = rd.from_arrow(pa.table({"v": pa.array([p],
                                                      type=pa.int64())}))
        t = relational.ds_to_table(
            graph_ops.bfs_hops(e, seeds, rounds=3,
                               approx_num_nodes=n)).to_pandas()
        hc = t["hops"].value_counts()
        n1, n2, n3 = (int(hc.get(1, 0)), int(hc.get(2, 0)),
                      int(hc.get(3, 0)))
        rows.append({"pv": p, "n1": n1, "n2": n2, "n3": n3,
                     "harmonic": round(n1 + n2 / 2.0 + n3 / 3.0, 6)})
    return pd.DataFrame(rows).astype({
        "pv": np.int64, "n1": np.int64, "n2": np.int64,
        "n3": np.int64})


def _sql_harmonic_pivots() -> str:
    chains = ",\n".join(
        _sql_bfs_rounds(f"doc_id = {p}", "src", "dst", 3, p=f"h{p}_")
        for p in range(5))
    union = "\nUNION ALL ".join(
        f"SELECT {p} AS pv, v, hops FROM h{p}_3" for p in range(5))
    return f"""
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
edges AS (
  SELECT d.doc_id AS src,
         (d.doc_id * 7919 + k.k * 104729) % nn.n AS dst
  FROM documents d, (SELECT unnest([1, 2, 3]) AS k) k, nn),
{chains},
u AS ({union})
SELECT CAST(pv AS BIGINT) AS pv,
       CAST(SUM(CASE WHEN hops = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n1,
       CAST(SUM(CASE WHEN hops = 2 THEN 1 ELSE 0 END) AS BIGINT) AS n2,
       CAST(SUM(CASE WHEN hops = 3 THEN 1 ELSE 0 END) AS BIGINT) AS n3,
       ROUND(SUM(CASE WHEN hops = 1 THEN 1 ELSE 0 END)
             + SUM(CASE WHEN hops = 2 THEN 1 ELSE 0 END) / 2.0
             + SUM(CASE WHEN hops = 3 THEN 1 ELSE 0 END) / 3.0, 6)
         AS harmonic
FROM u GROUP BY pv ORDER BY pv
"""


_CDC_P, _CDC_W, _CDC_MASK = 1099511628211, 8, 64


def q_cdc_chunking_stats(sf_dir: str):
    """Content-defined chunking (the rsync/backup-dedup primitive):
    cut after every 8-byte window whose FNV rolling hash ≡ 0 mod 64
    (avg chunk ≈64 B) — boundaries depend only on LOCAL content, so an
    insertion reshifts one chunk, not every fixed-width block.  The
    corpus-wide report (chunks, distinct chunks, dup ratio, mean
    length) folds from per-batch chunk partials through ONE
    chunk-identity groupby; the twin replays the identical byte-level
    polynomial (the fingerprint twin's ring-homomorphism trick) in
    HUGEINT.  Chunk identity here is the chunk content itself —
    the 100-TB path would ship 16-byte digests instead (noted, not
    needed for the bounded fixtures)."""
    from ray.data.aggregate import Sum

    docs = _read(sf_dir, "documents", ["text"])
    M = np.uint64(0xFFFFFFFFFFFFFFFF)      # implicit via uint64 wrap

    def chunks_of(bts: bytes) -> list[bytes]:
        b = np.frombuffer(bts, dtype=np.uint8).astype(np.uint64)
        n = len(b)
        if n < _CDC_W:
            return [bts] if n else []
        nw = n - _CDC_W + 1
        h = np.zeros(nw, dtype=np.uint64)
        p = np.uint64(_CDC_P)
        with np.errstate(over="ignore"):
            for j in range(_CDC_W):
                h = h * p + b[j:j + nw]
        cuts = np.flatnonzero(h % np.uint64(_CDC_MASK) == 0) + _CDC_W
        starts = np.concatenate([[0], cuts])
        ends = np.concatenate([cuts, [n]])
        return [bts[s:e] for s, e in zip(starts, ends) if e > s]

    def partial(t: pa.Table) -> pa.Table:
        agg: dict = {}
        for txt in t["text"].to_pylist():
            for ch in chunks_of(txt.encode()):
                if ch in agg:
                    agg[ch] += 1
                else:
                    agg[ch] = 1
        return pa.table({
            "ch": pa.array(list(agg.keys()), type=pa.binary()),
            "ln": pa.array([len(c) for c in agg],
                           type=pa.int64()),
            "c": pa.array(list(agg.values()), type=pa.int64())})

    red = relational.ds_to_table(
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("ch").aggregate(Sum("c", alias_name="c"))
        .map_batches(lambda t: pa.table({
            "nd": pa.array([t.num_rows], type=pa.int64()),
            "nc": pa.array([int(np.sum(
                t["c"].to_numpy(zero_copy_only=False)))],
                type=pa.int64()),
            "tb": pa.array([int(np.sum(
                pc.binary_length(t["ch"]).to_numpy(
                    zero_copy_only=False).astype(np.int64)
                * t["c"].to_numpy(zero_copy_only=False)))],
                type=pa.int64())}), batch_format="pyarrow")
    ).to_pandas().sum()
    nd, nch, tb = (int(red["nd"]), int(red["nc"]), int(red["tb"]))
    return pd.DataFrame([{
        "n_chunks": nch, "n_distinct": nd, "total_bytes": tb,
        "dup_ratio": np.round(1.0 - nd / nch, 6),
        "mean_len": np.round(tb / nch, 4)}]) \
        .astype({"n_chunks": np.int64, "n_distinct": np.int64,
                 "total_bytes": np.int64})


def _sql_cdc_stats() -> str:
    M = 1 << 64
    pows = [pow(_CDC_P, _CDC_W - 1 - j, M) for j in range(_CDC_W)]
    terms = [f"(CAST(byte AS HUGEINT) * {pows[0]}) % {M}"] + [
        f"(CAST(lead(byte, {j}) OVER win AS HUGEINT) * {pows[j]}) % {M}"
        for j in range(1, _CDC_W)]
    terms_sql = "\n      + ".join(terms)
    return f"""
WITH b AS (
  SELECT doc_id, CAST(i AS INT) AS i,
         octet_length(encode(text)) AS n,
         hex(encode(text)) AS hx,
         CAST('0x' || substr(hex(encode(text)),
                             2 * CAST(i AS INT) - 1, 2) AS INT) AS byte
  FROM (SELECT doc_id, text,
               unnest(generate_series(1,
                 octet_length(encode(text)))) AS i
        FROM documents)),
w AS (
  SELECT doc_id, i, n, hx,
    ( {terms_sql}
    ) % {M} AS h
  FROM b
  WINDOW win AS (PARTITION BY doc_id ORDER BY i)),
cuts AS (SELECT doc_id, i + {_CDC_W - 1} AS cut
         FROM w WHERE i <= n - {_CDC_W - 1} AND h % {_CDC_MASK} = 0),
dn AS (SELECT DISTINCT doc_id, n, hx FROM b WHERE n > 0),
starts AS (SELECT doc_id, 0 AS st FROM dn
           UNION ALL SELECT doc_id, cut FROM cuts WHERE cut <
             (SELECT n FROM dn d WHERE d.doc_id = cuts.doc_id)),
ch AS (SELECT s.doc_id,
              substr(dn.hx, 2 * s.st + 1,
                     2 * (COALESCE(LEAD(s.st) OVER
                            (PARTITION BY s.doc_id ORDER BY s.st),
                          dn.n) - s.st)) AS chunk,
              COALESCE(LEAD(s.st) OVER
                         (PARTITION BY s.doc_id ORDER BY s.st),
                       dn.n) - s.st AS ln
       FROM starts s JOIN dn USING (doc_id)),
agg AS (SELECT CAST(COUNT(*) AS BIGINT) AS nc,
               CAST(COUNT(DISTINCT chunk) AS BIGINT) AS nd,
               CAST(SUM(ln) AS BIGINT) AS tb
        FROM ch WHERE ln > 0)
SELECT nc AS n_chunks, nd AS n_distinct, tb AS total_bytes,
       ROUND(1.0 - nd / CAST(nc AS DOUBLE), 6) AS dup_ratio,
       ROUND(CAST(tb AS DOUBLE) / nc, 4) AS mean_len
FROM agg
"""


def q_mutual_nn_pairs(sf_dir: str):
    """Mutual nearest neighbours over the embedding table: pairs
    (i, j) where each is the other's top-1 cosine neighbour — the MNN
    anchor-pairing primitive behind batch-effect correction and
    cross-lingual alignment (one-directional NN gives hubs; mutuality
    filters them).  One streaming pass computes every vector's NN
    against the broadcast matrix (per-batch matmul, exact ties to the
    smaller id); the mutuality close is a self-join on the tiny
    (n × 2) NN table."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    tbl = relational.ds_to_table(emb)
    ids_all = np.asarray(tbl["vec_id"].to_pylist(), dtype=np.int64)
    order = np.argsort(ids_all)
    mat = np.stack([np.asarray(v, dtype=np.float64)
                    for v in tbl["embedding"].to_pylist()])[order]
    ids_all = ids_all[order]
    mref = ray.put((ids_all, mat / np.linalg.norm(
        mat, axis=1, keepdims=True)))
    _st: dict = {}

    def nn(t: pa.Table) -> pa.Table:
        st = _st.get("m")
        if st is None:
            st = _st["m"] = ray.get(mref)
        cand_ids, cm = st
        ids = t["vec_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        m = np.stack([np.asarray(v, dtype=np.float64)
                      for v in t["embedding"].to_pylist()])
        m = m / np.linalg.norm(m, axis=1, keepdims=True)
        sims = m @ cm.T
        sims[np.arange(len(ids)),
             np.searchsorted(cand_ids, ids)] = -np.inf  # exclude self
        best = np.argmax(sims, axis=1)   # first max = smallest id
        return pa.table({"src": pa.array(ids),
                         "nn": pa.array(cand_ids[best])})

    nnt = relational.ds_to_table(
        emb.map_batches(nn, batch_format="pyarrow")).to_pandas()
    m = nnt.set_index("src")["nn"]
    a = nnt["src"].to_numpy(np.int64)
    b = nnt["nn"].to_numpy(np.int64)
    mutual = (m.reindex(b).to_numpy() == a) & (a < b)
    out = pd.DataFrame({"a": a[mutual], "b": b[mutual]}) \
        .sort_values(["a", "b"]).reset_index(drop=True)
    return out.astype({"a": np.int64, "b": np.int64})


SQL_MUTUAL_NN = """
WITH nnq AS (
  SELECT a.vec_id AS src, b.vec_id AS nn,
         ROW_NUMBER() OVER (PARTITION BY a.vec_id
             ORDER BY list_cosine_similarity(a.embedding,
                                             b.embedding) DESC,
                      b.vec_id) AS rn
  FROM embeddings a JOIN embeddings b ON a.vec_id <> b.vec_id),
n1 AS (SELECT src, nn FROM nnq WHERE rn = 1)
SELECT x.src AS a, x.nn AS b
FROM n1 x JOIN n1 y ON y.src = x.nn AND y.nn = x.src
WHERE x.src < x.nn ORDER BY 1, 2
"""


def q_deterministic_random_walks(sf_dir: str):
    """Node2vec-style walk corpus over the link graph with
    DETERMINISTIC next-step choice (edge k = 1 + hash(node, step) % 3
    of the node's three formula out-edges) — the reproducible walk
    generator a distributed embedding trainer needs (seeded walks =
    re-runnable training data).  Walks start at every 50th doc and
    take 3 steps; each step is one vectorized map over the walk
    frontier (the graph is a FORMULA, so steps need no edge shuffle
    at all — the degenerate-best case of the walk join).  The twin
    unrolls the same three steps as column expressions."""
    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()

    def walk(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        v0 = d[d % 50 == 0]
        cols = {"start": v0, "v0": v0}
        cur = v0
        for step in range(1, 4):
            k = 1 + (cur * 2654435761 + step * 40503) % 3
            cur = (cur * 7919 + k * 104729) % n
            cols[f"v{step}"] = cur
        return pa.table({c: pa.array(v) for c, v in cols.items()})

    out = relational.ds_to_table(
        docs.map_batches(walk, batch_format="pyarrow")
    ).to_pandas().sort_values("start").reset_index(drop=True)
    return out.astype({c: np.int64 for c in out.columns})


SQL_RANDOM_WALKS = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
w0 AS (SELECT doc_id AS start, doc_id AS v0 FROM documents
       WHERE doc_id % 50 = 0),
w1 AS (SELECT start, v0,
              (v0 * 7919 + (1 + (v0 * 2654435761 + 1 * 40503) % 3)
               * 104729) % nn.n AS v1
       FROM w0, nn),
w2 AS (SELECT start, v0, v1,
              (v1 * 7919 + (1 + (v1 * 2654435761 + 2 * 40503) % 3)
               * 104729) % nn.n AS v2
       FROM w1, nn),
w3 AS (SELECT start, v0, v1, v2,
              (v2 * 7919 + (1 + (v2 * 2654435761 + 3 * 40503) % 3)
               * 104729) % nn.n AS v3
       FROM w2, nn)
SELECT start, v0, v1, v2, v3 FROM w3 ORDER BY start
"""


def q_conformal_threshold_fpr(sf_dir: str):
    """Split-conformal decision threshold for the shared logreg doc
    scorer: calibrate on the NEGATIVE even-doc_id docs (threshold =
    the ⌈(n+1)(1−α)⌉-th smallest calibration score, α = 0.1 — the
    distribution-free guarantee P(FP) ≤ α under exchangeability),
    then measure the realized false-positive rate on the held-out odd
    negatives.  Scores are 6-dp ints, so the order statistic and all
    counts are exact; the FPR is the one mirrored division.  The twin
    selects the k-th order statistic via the ROW_NUMBER pivot
    (correlated OFFSET is unsupported)."""
    from ray.data.aggregate import Sum

    scored = _doc_logreg_scored(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        s6 = np.round(t["score"].to_numpy(zero_copy_only=False)
                      * 1e6).astype(np.int64)
        lbl = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        did = t["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        neg = lbl == 0
        cal = neg & (did % 2 == 0)
        ev = neg & (did % 2 == 1)
        g = pd.DataFrame({"s6": s6, "cal": cal.astype(np.int64),
                          "ev": ev.astype(np.int64)})
        g = g[cal | ev].groupby("s6", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    dist = relational.ds_to_table(
        scored.map_batches(partial, batch_format="pyarrow")
        .groupby("s6").aggregate(Sum("cal", alias_name="cal"),
                                 Sum("ev", alias_name="ev"))
    ).to_pandas().sort_values("s6").reset_index(drop=True)
    n_cal = int(dist["cal"].sum())
    k = min(n_cal, -(-((n_cal + 1) * 9) // 10))    # ceil 0.9(n+1)
    cum = dist["cal"].cumsum()
    thr = int(dist.loc[cum >= k, "s6"].iloc[0])
    n_ev = int(dist["ev"].sum())
    fp = int(dist.loc[dist["s6"] > thr, "ev"].sum())
    return pd.DataFrame([{
        "n_cal": n_cal, "k": k, "thr_s6": thr, "n_eval_neg": n_ev,
        "fp": fp, "fpr": round(fp / float(n_ev), 6)}]).astype({
            "n_cal": np.int64, "k": np.int64, "thr_s6": np.int64,
            "n_eval_neg": np.int64, "fp": np.int64})


SQL_CONFORMAL = """
WITH f AS (
  SELECT doc_id, n_chars / 1000.0 AS x1,
         len(string_split(text, ' ')) AS wl,
         CASE WHEN n_chars > 297 THEN 1 ELSE 0 END AS label
  FROM documents),
s AS (SELECT doc_id,
             CAST(ROUND(ROUND(1.0 / (1.0 + exp(-(0.25 + 0.8 * x1
                   - 0.5 * (wl / 100.0)))), 6) * 1000000) AS BIGINT)
               AS s6,
             label FROM f),
cal AS (SELECT s6 FROM s WHERE label = 0 AND doc_id % 2 = 0),
ev AS (SELECT s6 FROM s WHERE label = 0 AND doc_id % 2 = 1),
nc AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM cal),
kk AS (SELECT LEAST(n, CAST(CEIL((n + 1) * 0.9) AS BIGINT)) AS k,
              n FROM nc),
rk AS (SELECT s6, ROW_NUMBER() OVER (ORDER BY s6) AS rn FROM cal),
th AS (SELECT MAX(CASE WHEN rn = kk.k THEN s6 END) AS thr
       FROM rk, kk GROUP BY kk.k)
SELECT kk.n AS n_cal, kk.k AS k, CAST(th.thr AS BIGINT) AS thr_s6,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM ev) AS n_eval_neg,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM ev
        WHERE s6 > th.thr) AS fp,
       ROUND((SELECT COUNT(*) FROM ev WHERE s6 > th.thr)
             / CAST((SELECT COUNT(*) FROM ev) AS DOUBLE), 6) AS fpr
FROM kk, th
"""


def q_boolean_and_search(sf_dir: str):
    """Conjunctive boolean retrieval: documents containing ALL of
    {'window', 'merge', 'spark'} — the posting-list intersection
    behind every search AND-query.  Per batch each doc emits its
    matched-term count from three vectorized substring-token tests;
    the intersection is `matched = 3`, never a 3-way join.  Output is
    the matching doc ids plus per-term document frequencies."""
    TERMS = ("window", "merge", "spark")
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def match(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t["text"], pattern=" ")
        lens = pc.list_value_length(parts).to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(parts)
        row = np.repeat(np.arange(len(lens)), lens)
        hits = []
        for term in TERMS:
            eq = pc.equal(flat, term).to_numpy(zero_copy_only=False)
            h = np.zeros(len(lens), dtype=bool)
            np.logical_or.at(h, row, eq)     # per-doc ANY, vectorized
            hits.append(h.astype(np.int64))
        m = np.stack(hits)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_terms": pa.array(m.sum(axis=0)),
            "h0": pa.array(m[0]), "h1": pa.array(m[1]),
            "h2": pa.array(m[2])})

    scored = docs.map_batches(match, batch_format="pyarrow") \
        .materialize()
    from ray.data.aggregate import Sum
    dfs = scored.aggregate(Sum("h0"), Sum("h1"), Sum("h2"))
    hit_ids = relational.ds_to_table(
        scored.filter(expr="n_terms == 3")
        .select_columns(["doc_id"])).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    hit_ids["df_window"] = int(dfs["sum(h0)"])
    hit_ids["df_merge"] = int(dfs["sum(h1)"])
    hit_ids["df_spark"] = int(dfs["sum(h2)"])
    return hit_ids.astype({c: np.int64 for c in hit_ids.columns})


SQL_BOOLEAN_AND = """
WITH tok AS (SELECT doc_id,
                    unnest(string_split(text, ' ')) AS w
             FROM documents),
hit AS (SELECT doc_id,
               MAX(CASE WHEN w = 'window' THEN 1 ELSE 0 END) AS h0,
               MAX(CASE WHEN w = 'merge' THEN 1 ELSE 0 END) AS h1,
               MAX(CASE WHEN w = 'spark' THEN 1 ELSE 0 END) AS h2
        FROM tok GROUP BY 1),
dfs AS (SELECT CAST(SUM(h0) AS BIGINT) AS d0,
               CAST(SUM(h1) AS BIGINT) AS d1,
               CAST(SUM(h2) AS BIGINT) AS d2 FROM hit)
SELECT doc_id, d0 AS df_window, d1 AS df_merge, d2 AS df_spark
FROM hit, dfs WHERE h0 + h1 + h2 = 3 ORDER BY doc_id
"""


def q_cross_source_dup_matrix(sf_dir: str):
    """Cross-source duplication matrix: which crawls copy which —
    exact Jaccard ≥ 0.8 near-dup pairs (the recall-complete AllPairs
    kernel) rolled up to (source, source) counts via two bucketed
    joins of the pair list against the doc→source map (never a
    corpus-sized broadcast).  The inter-source cells are the mixing
    diagnostic; the diagonal is within-crawl redundancy."""
    from ray.data.aggregate import Sum

    docs = _read(sf_dir, "documents", ["doc_id", "text"]) \
        .repartition(32)
    pairs = dd.allpairs_jaccard(docs, key_col="doc_id",
                                text_col="text",
                                jaccard_threshold=0.8, shingle_k=5)
    smap = _read(sf_dir, "documents", ["doc_id", "source"])
    j1 = relational.bucketed_hash_join(
        pairs.map_batches(lambda t: pa.table(
            {"doc_id": t["a"], "b": t["b"]}),
            batch_format="pyarrow"),
        smap, on="doc_id").map_batches(
        lambda t: pa.table({"doc_id": t["b"], "sa": t["source"]}),
        batch_format="pyarrow")
    j2 = relational.bucketed_hash_join(j1, smap, on="doc_id")

    def cell(t: pa.Table) -> pa.Table:
        sa = t["sa"].to_numpy(zero_copy_only=False)
        sb = t["source"].to_numpy(zero_copy_only=False)
        lo = np.minimum(sa, sb)
        hi = np.maximum(sa, sb)
        g = pd.DataFrame({"s1": lo, "s2": hi, "n": 1}) \
            .groupby(["s1", "s2"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    out = relational.ds_to_table(
        j2.map_batches(cell, batch_format="pyarrow")
        .groupby(["s1", "s2"]).aggregate(Sum("n", alias_name="n"))
    ).to_pandas().sort_values(["s1", "s2"]).reset_index(drop=True)
    return out.astype({"n": np.int64})


SQL_CROSS_SOURCE_DUP = """
WITH sh AS (
  SELECT DISTINCT doc_id, substr(text, CAST(i AS INT), 5) AS g
  FROM (SELECT doc_id, text,
        unnest(generate_series(1, GREATEST(length(text) - 4, 1))) AS i
        FROM documents)),
sizes AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT x.doc_id AS a, y.doc_id AS b, COUNT(*) AS ni
  FROM sh x JOIN sh y ON x.g = y.g AND x.doc_id < y.doc_id
  GROUP BY 1, 2),
p AS (SELECT i.a, i.b FROM inter i
      JOIN sizes sa ON sa.doc_id = i.a
      JOIN sizes sb ON sb.doc_id = i.b
      WHERE CAST(i.ni AS DOUBLE) / (sa.n + sb.n - i.ni) >= 0.8)
SELECT LEAST(da.source, db.source) AS s1,
       GREATEST(da.source, db.source) AS s2,
       CAST(COUNT(*) AS BIGINT) AS n
FROM p JOIN documents da ON da.doc_id = p.a
       JOIN documents db ON db.doc_id = p.b
GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_triangle_null_model(sf_dir: str):
    """Observed triangles vs the configuration-model expectation
    E[T] ≈ (Σd(d−1) / Σd)³ / 6 — the null-model ratio that says
    whether the link graph's clustering is real structure or just a
    degree-sequence artifact.  Degree moments fold exactly over the
    undirected simple graph (the same LEAST/GREATEST dedup the
    triangle kernel uses); the observed count reuses the
    degree-ordered O(m^1.5) kernel; the ratio is the one mirrored
    float expression."""
    from ray.data.aggregate import Sum

    from ...stages import graph_ops

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()

    def edges(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        src = np.repeat(d, 3)
        k = np.tile(np.array([1, 2, 3], dtype=np.int64), len(d))
        return pa.table({"src": pa.array(src),
                         "dst": pa.array((src * 7919 + k * 104729) % n)})

    e = docs.map_batches(edges, batch_format="pyarrow")
    tri = int(graph_ops.triangle_count(e))
    und = graph_ops._normalize_undirected(e, "src", "dst")

    def deg_partial(t: pa.Table) -> pa.Table:
        v = np.concatenate([
            t["ea"].to_numpy(zero_copy_only=False).astype(np.int64),
            t["eb"].to_numpy(zero_copy_only=False).astype(np.int64)])
        g, c = np.unique(v, return_counts=True)
        return pa.table({"v": pa.array(g),
                         "c": pa.array(c.astype(np.int64))})

    degs = relational.ds_to_table(
        und.map_batches(deg_partial, batch_format="pyarrow")
        .groupby("v").aggregate(Sum("c", alias_name="d"))
    ).to_pandas()["d"].to_numpy(np.int64)
    m1 = int(degs.sum())
    m2 = int((degs * (degs - 1)).sum())
    expected = (m2 / float(m1)) ** 3 / 6.0
    return pd.DataFrame([{
        "n_triangles": tri, "sum_deg": m1, "sum_deg2": m2,
        "expected": np.round(expected, 4),
        "ratio": np.round(tri / expected, 4)}]).astype({
            "n_triangles": np.int64, "sum_deg": np.int64,
            "sum_deg2": np.int64})


SQL_TRIANGLE_NULL = """
WITH raw AS (
  SELECT doc_id AS src,
         (doc_id * 7919 + k * 104729)
           % (SELECT COUNT(*) FROM documents) AS dst
  FROM documents CROSS JOIN (VALUES (1), (2), (3)) t(k)),
e AS (SELECT DISTINCT LEAST(src, dst) AS a, GREATEST(src, dst) AS b
      FROM raw WHERE src <> dst),
tri AS (SELECT CAST(COUNT(*) AS BIGINT) AS t
        FROM e e1 JOIN e e2 ON e2.a = e1.b
        JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b),
dg AS (SELECT v, CAST(COUNT(*) AS BIGINT) AS d
       FROM (SELECT a AS v FROM e UNION ALL SELECT b FROM e)
       GROUP BY v),
mm AS (SELECT CAST(SUM(d) AS BIGINT) AS m1,
              CAST(SUM(d * (d - 1)) AS BIGINT) AS m2 FROM dg)
SELECT tri.t AS n_triangles, mm.m1 AS sum_deg, mm.m2 AS sum_deg2,
       ROUND(pow(mm.m2 / CAST(mm.m1 AS DOUBLE), 3) / 6.0, 4)
         AS expected,
       ROUND(tri.t / (pow(mm.m2 / CAST(mm.m1 AS DOUBLE), 3) / 6.0), 4)
         AS ratio
FROM tri, mm
"""


def q_shingle_novelty_by_source(sf_dir: str):
    """Shingle novelty per source: of each source's distinct 5-gram
    slots, how many are FIRST INTRODUCTIONS (global min doc_id owns
    the shingle) — the marginal-diversity curve that says which crawl
    still adds new content and which only repeats the corpus.  One
    (shingle → min doc) reduce over the shared u64 polynomial, first
    counts ride a bucketed join back to the doc→source map; ratios
    are the one mirrored division per source."""
    from ray.data.aggregate import Min, Sum

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def explode(t: pa.Table) -> pa.Table:
        ids, gs, tot = [], [], []
        for did, txt in zip(t["doc_id"].to_pylist(),
                            t["text"].to_pylist()):
            hs = _shingle_set_u64(txt)
            gs.append(hs)
            ids.append(np.full(len(hs), did, dtype=np.int64))
            tot.append(len(hs))
        gall = (np.concatenate(gs) if gs
                else np.zeros(0, np.uint64)).view(np.int64)
        return pa.table({          # int64 REINTERPRET: the groupby
            "g": pa.array(gall),   # only needs equality, and pandas
            "doc_id": pa.array(    # blocks choke on u64 > 2^63
                np.concatenate(ids) if ids else np.zeros(0, np.int64))})

    intro = docs.map_batches(explode, batch_format="pyarrow") \
        .groupby("g").aggregate(Min("doc_id", alias_name="doc_id")) \
        .map_batches(lambda t: pa.table({
            "doc_id": t["doc_id"],
            "fi": pa.array(np.ones(t.num_rows, dtype=np.int64))}),
            batch_format="pyarrow")

    def tot_partial(t: pa.Table) -> pa.Table:
        rows = [(did, len(_shingle_set_u64(txt)))
                for did, txt in zip(t["doc_id"].to_pylist(),
                                    t["text"].to_pylist())]
        return pa.table({
            "doc_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "ns": pa.array([r[1] for r in rows], type=pa.int64())})

    totals = docs.map_batches(tot_partial, batch_format="pyarrow")
    smap = _read(sf_dir, "documents", ["doc_id", "source"])
    j1 = relational.bucketed_hash_join(totals, smap, on="doc_id")
    j2 = relational.bucketed_hash_join(intro, smap, on="doc_id")

    def agg(ds, col):
        def p(t: pa.Table) -> pa.Table:
            g = pd.DataFrame({
                "source": t["source"].to_numpy(zero_copy_only=False),
                col: t[col].to_numpy(zero_copy_only=False)}) \
                .groupby("source", sort=False).sum().reset_index()
            return pa.Table.from_pandas(g, preserve_index=False)
        return relational.ds_to_table(
            ds.map_batches(p, batch_format="pyarrow")
            .groupby("source").aggregate(Sum(col, alias_name=col))
        ).to_pandas().set_index("source")[col]

    ts, fs = agg(j1, "ns"), agg(j2, "fi")
    srcs = sorted(ts.index)
    out = pd.DataFrame({
        "source": srcs,
        "n_shingle_slots": [int(ts[s]) for s in srcs],
        "n_introduced": [int(fs.get(s, 0)) for s in srcs]})
    out["novelty"] = np.round(
        out["n_introduced"] / out["n_shingle_slots"].astype(
            np.float64), 6)
    return out.astype({"n_shingle_slots": np.int64,
                       "n_introduced": np.int64})


SQL_SHINGLE_NOVELTY = """
WITH sh AS (
  SELECT DISTINCT doc_id, substr(text, CAST(i AS INT), 5) AS g
  FROM (SELECT doc_id, text,
        unnest(generate_series(1, GREATEST(length(text) - 4, 1))) AS i
        FROM documents)),
intro AS (SELECT g, MIN(doc_id) AS doc_id FROM sh GROUP BY g),
fi AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS fi
       FROM intro GROUP BY 1),
ns AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS ns
       FROM sh GROUP BY 1),
per AS (SELECT d.source, SUM(ns.ns) AS slots,
               SUM(COALESCE(fi.fi, 0)) AS fsum FROM documents d
        JOIN ns USING (doc_id) LEFT JOIN fi USING (doc_id)
        GROUP BY 1)
SELECT source, CAST(slots AS BIGINT) AS n_shingle_slots,
       CAST(fsum AS BIGINT) AS n_introduced,
       ROUND(fsum / CAST(slots AS DOUBLE), 6) AS novelty
FROM per ORDER BY source
"""


def q_ndcg_at_10_by_source(sf_dir: str):
    """nDCG@10 of the deterministic length ranking per source — the
    standard ranking-quality eval for a retrieval stack: rank each
    source's docs by (n_chars DESC, doc_id ASC), grade relevance as
    doc_id % 4, and score DCG@10 against the ideal (relevance-sorted)
    ordering.  Distributed exactly: per-batch per-source TOP-10 under
    BOTH orders is a valid combiner for a global top-10 (monotone
    prefix), so the final per-source group sees ≤ 20·n_blocks
    candidate rows, never the corpus."""
    docs = _read(sf_dir, "documents", ["doc_id", "n_chars", "source"])

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "source": t["source"].to_pandas(),
            "doc_id": t["doc_id"].to_numpy(zero_copy_only=False),
            "n_chars": t["n_chars"].to_numpy(zero_copy_only=False)})
        df["rel"] = df["doc_id"] % 4
        d = df.sort_values(["n_chars", "doc_id"],
                           ascending=[False, True]) \
            .groupby("source", sort=False).head(10)
        i = df.sort_values(["rel", "doc_id"],
                           ascending=[False, True]) \
            .groupby("source", sort=False).head(10)
        d, i = d.copy(), i.copy()
        d["kind"], i["kind"] = "d", "i"
        return pa.Table.from_pandas(pd.concat([d, i]),
                                    preserve_index=False)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        disc = None
        out = {}
        for kind, by, asc in (("d", ["n_chars", "doc_id"],
                               [False, True]),
                              ("i", ["rel", "doc_id"],
                               [False, True])):
            top = g[g["kind"] == kind].sort_values(by, ascending=asc) \
                .head(10)
            rel = top["rel"].to_numpy(np.float64)
            disc = np.log2(np.arange(2, len(rel) + 2,
                                     dtype=np.float64))
            out[kind] = float(((2.0 ** rel - 1.0) / disc).sum())
        ndcg = round(out["d"] / out["i"], 6) if out["i"] > 0 \
            else np.nan
        return pd.DataFrame({
            "source": [g["source"].iloc[0]],
            "dcg10": [round(out["d"], 6)],
            "idcg10": [round(out["i"], 6)],
            "ndcg10": [ndcg]})

    res = relational.ds_to_table(
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("source").map_groups(finish, batch_format="pandas")
    ).to_pandas()
    return res.sort_values("source").reset_index(drop=True)


SQL_NDCG = """
WITH g AS (SELECT source, doc_id, n_chars,
                  doc_id % 4 AS rel FROM documents),
d AS (SELECT source, rel,
             ROW_NUMBER() OVER (PARTITION BY source
                 ORDER BY n_chars DESC, doc_id ASC) AS rn FROM g),
i AS (SELECT source, rel,
             ROW_NUMBER() OVER (PARTITION BY source
                 ORDER BY rel DESC, doc_id ASC) AS rn FROM g),
dc AS (SELECT source,
              SUM((POW(2, rel) - 1) / LOG2(rn + 1)) AS dcg
       FROM d WHERE rn <= 10 GROUP BY 1),
ic AS (SELECT source,
              SUM((POW(2, rel) - 1) / LOG2(rn + 1)) AS idcg
       FROM i WHERE rn <= 10 GROUP BY 1)
SELECT dc.source, ROUND(dcg, 6) AS dcg10, ROUND(idcg, 6) AS idcg10,
       CASE WHEN idcg > 0 THEN ROUND(dcg / idcg, 6) END AS ndcg10
FROM dc JOIN ic USING (source) ORDER BY source
"""


def q_lift_curve_deciles(sf_dir: str):
    """Cumulative-gain decile lift of the shared logreg document
    scorer: rank all docs by (score DESC, doc_id), split into 10
    exact rank deciles — bucket = (rn−1)·10//n, NOT NTILE's
    front-loaded remainder — and report each decile's positive rate
    against the base rate (the targeting chart every campaign
    planner reads).  Global ranks distribute exactly: a bounded
    score-histogram pass yields per-score offsets (6-dp scores), each
    score group then ranks locally by doc_id under its broadcast
    offset — no global sort."""
    from ray.data.aggregate import Sum

    scored = _doc_logreg_scored(sf_dir)
    hist = relational.ds_to_table(
        scored.map_batches(lambda t: pa.table({
            "score": t["score"],
            "c": pa.array(np.ones(t.num_rows, dtype=np.int64))}),
            batch_format="pyarrow")
        .groupby("score").aggregate(Sum("c", alias_name="c"))
    ).to_pandas().sort_values("score", ascending=False)
    n = int(hist["c"].sum())
    offs = dict(zip(hist["score"],
                    (np.cumsum(hist["c"]) - hist["c"])
                    .to_numpy(np.int64)))
    offs_ref = ray.put(offs)

    def rank_group(g: pd.DataFrame) -> pd.DataFrame:
        o = ray.get(offs_ref)[float(g["score"].iloc[0])]
        g = g.sort_values("doc_id")
        rn = np.arange(1, len(g) + 1, dtype=np.int64) + o
        dec = (rn - 1) * 10 // n
        out = pd.DataFrame({"decile": dec,
                            "lbl": g["label"].to_numpy(np.int64),
                            "c": 1})
        return out.groupby("decile", sort=False) \
            .agg(n_pos=("lbl", "sum"), n_rows=("c", "sum")) \
            .reset_index()

    d = relational.ds_to_table(
        scored.groupby("score").map_groups(rank_group,
                                           batch_format="pandas")
        .groupby("decile").aggregate(
            Sum("n_pos", alias_name="n_pos"),
            Sum("n_rows", alias_name="n_rows"))
    ).to_pandas().sort_values("decile").reset_index(drop=True)
    pos = int(d["n_pos"].sum())
    rate = d["n_pos"].to_numpy(np.float64) \
        / d["n_rows"].to_numpy(np.float64)
    base = float(pos) / float(n)

    def r6(x):
        # rates are dyadic rationals that CAN land exactly on .5 at
        # the 6th digit (e.g. 1/256); DuckDB ROUND is half-away
        return np.floor(x * 1e6 + 0.5) / 1e6

    return pd.DataFrame({
        "decile": d["decile"].to_numpy(np.int64),
        "n_rows": d["n_rows"].to_numpy(np.int64),
        "n_pos": d["n_pos"].to_numpy(np.int64),
        "pos_rate": r6(rate),
        "lift": r6(rate / base)})


SQL_LIFT_DECILES = """
WITH f AS (
  SELECT doc_id, n_chars / 1000.0 AS x1,
         len(string_split(text, ' ')) / 100.0 AS x2,
         CASE WHEN n_chars > 297 THEN 1 ELSE 0 END AS label
  FROM documents),
s AS (SELECT doc_id, label,
             ROUND(1.0 / (1.0 + exp(-(0.25 + 0.8 * x1 - 0.5 * x2))),
                   6) AS score
      FROM f),
t AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(label) AS BIGINT) AS pos FROM s),
r AS (SELECT label,
             ROW_NUMBER() OVER (ORDER BY score DESC, doc_id) AS rn
      FROM s),
d AS (SELECT (rn - 1) * 10 // n AS decile,
             CAST(COUNT(*) AS BIGINT) AS n_rows,
             CAST(SUM(label) AS BIGINT) AS n_pos
      FROM r, t GROUP BY 1, n)
SELECT decile, n_rows, n_pos,
       ROUND(CAST(n_pos AS DOUBLE) / n_rows, 6) AS pos_rate,
       ROUND((CAST(n_pos AS DOUBLE) / n_rows)
             / (CAST(t.pos AS DOUBLE) / t.n), 6) AS lift
FROM d, t ORDER BY decile
"""


_QL_TERMS = ("window", "merge", "spark")
_QL_MU = 2000.0


def q_dirichlet_ql_retrieval(sf_dir: str):
    """Query-likelihood retrieval with Dirichlet smoothing (μ=2000)
    for the 3-term query — the language-modelling ranker that beats
    raw TF-IDF on short queries: score(d) = Σ_t ln((tf + μ·cf_t/T) /
    (len_d + μ)), where the corpus model cf/T backs off terms the doc
    lacks.  One tiny corpus-stats reduce (cf per term + total
    tokens), then a single embarrassingly-parallel scoring pass with
    per-batch top-20 partials — docs never shuffle.  Ordered by
    (rounded score DESC, doc_id), mirrored literally in the twin."""
    from ray.data.aggregate import Sum

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def stats(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t["text"], pattern=" ")
        flat = pc.list_flatten(parts)
        row = {"t": np.array([len(flat)], dtype=np.int64)}
        for i, term in enumerate(_QL_TERMS):
            row[f"c{i}"] = np.array([int(pc.sum(
                pc.cast(pc.equal(flat, term), pa.int64())).as_py()
                or 0)], dtype=np.int64)
        return pa.table({k: pa.array(v) for k, v in row.items()})

    agg = docs.map_batches(stats, batch_format="pyarrow").aggregate(
        Sum("t", alias_name="t"),
        *[Sum(f"c{i}", alias_name=f"c{i}")
          for i in range(len(_QL_TERMS))])
    T = int(agg["t"])
    cf = [int(agg[f"c{i}"]) for i in range(len(_QL_TERMS))]

    def score(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t["text"], pattern=" ")
        lens = pc.list_value_length(parts).to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(parts)
        row = np.repeat(np.arange(len(lens)), lens)
        sc = np.zeros(len(lens), dtype=np.float64)
        denom = lens.astype(np.float64) + _QL_MU
        for i, term in enumerate(_QL_TERMS):
            eq = pc.equal(flat, term).to_numpy(zero_copy_only=False)
            tf = np.zeros(len(lens), dtype=np.int64)
            np.add.at(tf, row, eq.astype(np.int64))
            sc = sc + np.log((tf + (_QL_MU * cf[i]) / T) / denom)
        out = pd.DataFrame({
            "doc_id": t["doc_id"].to_numpy(zero_copy_only=False),
            "score": np.round(sc, 6)})
        return pa.Table.from_pandas(      # monotone top-20 combiner
            out.sort_values(["score", "doc_id"],
                            ascending=[False, True]).head(20),
            preserve_index=False)

    res = relational.ds_to_table(
        docs.map_batches(score, batch_format="pyarrow")).to_pandas()
    return res.sort_values(["score", "doc_id"],
                           ascending=[False, True]).head(20) \
        .reset_index(drop=True)


SQL_DIRICHLET_QL = """
WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS w
             FROM documents),
tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS t FROM tok),
cf AS (SELECT SUM(CASE WHEN w = 'window' THEN 1 ELSE 0 END) AS c0,
              SUM(CASE WHEN w = 'merge' THEN 1 ELSE 0 END) AS c1,
              SUM(CASE WHEN w = 'spark' THEN 1 ELSE 0 END) AS c2
       FROM tok),
d AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS len,
             SUM(CASE WHEN w = 'window' THEN 1 ELSE 0 END) AS t0,
             SUM(CASE WHEN w = 'merge' THEN 1 ELSE 0 END) AS t1,
             SUM(CASE WHEN w = 'spark' THEN 1 ELSE 0 END) AS t2
      FROM tok GROUP BY 1),
s AS (SELECT doc_id,
             LN((t0 + (2000.0 * c0) / t) / (len + 2000.0))
               + LN((t1 + (2000.0 * c1) / t) / (len + 2000.0))
               + LN((t2 + (2000.0 * c2) / t) / (len + 2000.0))
               AS sc
      FROM d, tot, cf)
SELECT doc_id, ROUND(sc, 6) AS score FROM s
ORDER BY ROUND(sc, 6) DESC, doc_id LIMIT 20
"""


def q_wilson_ci_english_share(sf_dir: str):
    """Wilson 95 % score interval for each source's share of English
    documents — the proportion CI that stays inside [0,1] and behaves
    at small n where the Wald interval collapses (the reason survey
    and A/B dashboards quote Wilson).  One bounded (source, lang)
    count reduce; the closed form evaluates the identical literal-
    1.96 double expression as the twin."""
    from ray.data.aggregate import Sum

    docs = _read(sf_dir, "documents", ["source", "lang"])

    def partial(t: pa.Table) -> pa.Table:
        en = pc.equal(t["lang"], "en").to_numpy(
            zero_copy_only=False).astype(np.int64)
        g = pd.DataFrame({"source": t["source"].to_pandas(),
                          "pos": en, "c": 1}) \
            .groupby("source", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("source").aggregate(Sum("pos", alias_name="pos"),
                                     Sum("c", alias_name="n"))
    ).to_pandas().sort_values("source").reset_index(drop=True)
    n = agg["n"].to_numpy(np.int64).astype(np.float64)
    p = agg["pos"].to_numpy(np.int64).astype(np.float64) / n
    denom = 1 + 1.96 * 1.96 / n
    center = p + 1.96 * 1.96 / (2 * n)
    margin = 1.96 * np.sqrt((p * (1 - p) + 1.96 * 1.96 / (4 * n)) / n)
    return pd.DataFrame({
        "source": agg["source"], "n_docs": agg["n"].astype(np.int64),
        "n_en": agg["pos"].astype(np.int64),
        "p_en": np.round(p, 6),
        "ci_lo": np.round((center - margin) / denom, 6),
        "ci_hi": np.round((center + margin) / denom, 6)})


SQL_WILSON_CI = """
WITH g AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
                  CAST(SUM(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)
                       AS BIGINT) AS n_en
           FROM documents GROUP BY 1),
e AS (SELECT source, n_docs, n_en,
             CAST(n_docs AS DOUBLE) AS n,
             CAST(n_en AS DOUBLE) / CAST(n_docs AS DOUBLE) AS p
      FROM g)
SELECT source, n_docs, n_en, ROUND(p, 6) AS p_en,
       ROUND((p + 1.96 * 1.96 / (2 * n)
              - 1.96 * SQRT((p * (1 - p) + 1.96 * 1.96 / (4 * n))
                            / n))
             / (1 + 1.96 * 1.96 / n), 6) AS ci_lo,
       ROUND((p + 1.96 * 1.96 / (2 * n)
              + 1.96 * SQRT((p * (1 - p) + 1.96 * 1.96 / (4 * n))
                            / n))
             / (1 + 1.96 * 1.96 / n), 6) AS ci_hi
FROM e ORDER BY source
"""


def q_widest_path_links(sf_dir: str):
    """Bounded-hop widest (max-min / bottleneck-capacity) path over
    the synthetic link graph — the sssp twin under the (max, min)
    semiring: route bandwidth, not latency.  Same deterministic
    capacities c = 1 + (src·31 + dst·17) % 9 and every-101st-doc
    seeds; 3 BSP relaxation rounds where cand = min(width(u), c) and
    states combine by MAX.  Seed width = 9 (the capacity ceiling, ≡ ∞
    since no path exceeds it).  Each round is one edge scan against
    the broadcast width array + a dst-max reduce — the bucketed BSP
    leg takes over past the node budget exactly as sssp."""
    from ray.data.aggregate import Max

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()

    def edges(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        src = np.repeat(d, 3)
        k = np.tile(np.array([1, 2, 3], dtype=np.int64), len(d))
        dst = (src * 7919 + k * 104729) % n
        c = 1 + (src * 31 + dst * 17) % 9
        return pa.table({"src": pa.array(src), "dst": pa.array(dst),
                         "c": pa.array(c)})

    e = docs.map_batches(edges, batch_format="pyarrow")
    width = np.full(n, -1, dtype=np.int64)
    seeds = np.arange(0, n, 101, dtype=np.int64)
    width[seeds] = 9
    for _ in range(3):
        wref = ray.put(width)

        def relax(t: pa.Table, _w=wref) -> pa.Table:
            w = ray.get(_w)
            src = t["src"].to_numpy(zero_copy_only=False)
            cand = np.minimum(w[src],
                              t["c"].to_numpy(zero_copy_only=False))
            keep = cand > 0
            return pa.table({"dst": pa.array(
                t["dst"].to_numpy(zero_copy_only=False)[keep]),
                "cand": pa.array(cand[keep])})

        upd = relational.ds_to_table(
            e.map_batches(relax, batch_format="pyarrow")
            .groupby("dst").aggregate(Max("cand", alias_name="m"))
        ).to_pandas()
        d = upd["dst"].to_numpy(np.int64)
        width[d] = np.maximum(width[d], upd["m"].to_numpy(np.int64))
    reach = width >= 0
    return pd.DataFrame({
        "doc_id": np.nonzero(reach)[0].astype(np.int64),
        "width": width[reach]})


SQL_WIDEST_PATH = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
e AS (
  SELECT d.doc_id AS src,
         (d.doc_id * 7919 + k.k * 104729) % nn.n AS dst
  FROM documents d, (SELECT unnest([1, 2, 3]) AS k) k, nn),
ew AS (SELECT src, dst, 1 + (src * 31 + dst * 17) % 9 AS c FROM e),
d0 AS (SELECT doc_id AS v, CAST(9 AS BIGINT) AS w
       FROM documents WHERE doc_id % 101 = 0),
c1 AS (SELECT e.dst AS v, LEAST(d0.w, e.c) AS w
       FROM ew e JOIN d0 ON d0.v = e.src),
d1 AS (SELECT v, MAX(w) AS w FROM (
         SELECT * FROM d0 UNION ALL SELECT * FROM c1) GROUP BY v),
c2 AS (SELECT e.dst AS v, LEAST(d1.w, e.c) AS w
       FROM ew e JOIN d1 ON d1.v = e.src),
d2 AS (SELECT v, MAX(w) AS w FROM (
         SELECT * FROM d1 UNION ALL SELECT * FROM c2) GROUP BY v),
c3 AS (SELECT e.dst AS v, LEAST(d2.w, e.c) AS w
       FROM ew e JOIN d2 ON d2.v = e.src),
d3 AS (SELECT v, MAX(w) AS w FROM (
         SELECT * FROM d2 UNION ALL SELECT * FROM c3) GROUP BY v)
SELECT v AS doc_id, w AS width FROM d3 ORDER BY v
"""


def q_ece_calibration(sf_dir: str):
    """Expected Calibration Error of the shared logreg document
    scorer over 100 equal-width probability bins — per bin the gap
    between predicted confidence (mean 6-dp score, folded as exact
    micro-unit ints) and realized accuracy (positive rate), weighted
    by bin mass.  The reliability-diagram table behind every
    'is this model calibrated?' review; Σ wgap = ECE."""
    from ray.data.aggregate import Sum

    scored = _doc_logreg_scored(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        s = t["score"].to_numpy(zero_copy_only=False)
        b = np.minimum(99, np.floor(s * 100).astype(np.int64))
        micro = np.round(s * 1_000_000).astype(np.int64)
        g = pd.DataFrame({"bin": b, "micro": micro,
                          "pos": t["label"].to_numpy(
                              zero_copy_only=False),
                          "c": 1}) \
            .groupby("bin", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        scored.map_batches(partial, batch_format="pyarrow")
        .groupby("bin").aggregate(
            Sum("micro", alias_name="micro"),
            Sum("pos", alias_name="pos"), Sum("c", alias_name="n"))
    ).to_pandas().sort_values("bin").reset_index(drop=True)
    N = int(agg["n"].sum())
    nb = agg["n"].to_numpy(np.int64).astype(np.float64)
    conf = agg["micro"].to_numpy(np.int64).astype(np.float64) \
        / nb / 1000000.0
    acc = agg["pos"].to_numpy(np.int64).astype(np.float64) / nb
    return pd.DataFrame({
        "bin": agg["bin"].to_numpy(np.int64),
        "n_rows": agg["n"].to_numpy(np.int64),
        "conf": np.round(conf, 6), "acc": np.round(acc, 6),
        "wgap": np.round((nb / N) * np.abs(acc - conf), 6)})


SQL_ECE = """
WITH f AS (
  SELECT n_chars / 1000.0 AS x1,
         len(string_split(text, ' ')) / 100.0 AS x2,
         CASE WHEN n_chars > 297 THEN 1 ELSE 0 END AS label
  FROM documents),
s AS (SELECT label,
             ROUND(1.0 / (1.0 + exp(-(0.25 + 0.8 * x1 - 0.5 * x2))),
                   6) AS score
      FROM f),
b AS (SELECT LEAST(99, CAST(FLOOR(score * 100) AS BIGINT)) AS bin,
             CAST(ROUND(score * 1000000) AS BIGINT) AS micro, label
      FROM s),
g AS (SELECT bin, CAST(COUNT(*) AS BIGINT) AS n_rows,
             CAST(SUM(micro) AS BIGINT) AS micro,
             CAST(SUM(label) AS BIGINT) AS pos
      FROM b GROUP BY 1),
t AS (SELECT CAST(SUM(n_rows) AS BIGINT) AS nt FROM g)
SELECT bin, n_rows,
       ROUND(CAST(micro AS DOUBLE) / n_rows / 1000000.0, 6) AS conf,
       ROUND(CAST(pos AS DOUBLE) / n_rows, 6) AS acc,
       ROUND((CAST(n_rows AS DOUBLE) / nt)
             * ABS(CAST(pos AS DOUBLE) / n_rows
                   - CAST(micro AS DOUBLE) / n_rows / 1000000.0), 6)
         AS wgap
FROM g, t ORDER BY bin
"""


def q_modularity_formula_partition(sf_dir: str):
    """Directed Newman modularity of the doc_id%5 partition over the
    formula link graph — does the hash community structure exceed the
    degree-preserving null model?  Q = Σ_c (e_c/m − (out_c/m)(in_c/m))
    evaluated per community.  One edge-generating scan folds to a
    25-cell (src%5 × dst%5) reduce — the graph never materializes,
    exact integer counts, the Q arithmetic is one mirrored double
    expression per community."""
    from ray.data.aggregate import Sum

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()

    def cells(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        src = np.repeat(d, 3)
        k = np.tile(np.array([1, 2, 3], dtype=np.int64), len(d))
        dst = (src * 7919 + k * 104729) % n
        g = pd.DataFrame({"ca": src % 5, "cb": dst % 5, "c": 1}) \
            .groupby(["ca", "cb"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cell = relational.ds_to_table(
        docs.map_batches(cells, batch_format="pyarrow")
        .groupby(["ca", "cb"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    m = int(cell["c"].sum())
    rows = []
    for comm in sorted(cell["ca"].unique()):
        e_c = int(cell.loc[(cell["ca"] == comm)
                           & (cell["cb"] == comm), "c"].sum())
        out_c = int(cell.loc[cell["ca"] == comm, "c"].sum())
        in_c = int(cell.loc[cell["cb"] == comm, "c"].sum())
        q = float(e_c) / m - (float(out_c) / m) * (float(in_c) / m)
        rows.append({"community": int(comm), "e_within": e_c,
                     "out_deg": out_c, "in_deg": in_c,
                     "q_contrib": round(q, 6)})
    return pd.DataFrame(rows)


SQL_MODULARITY = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
e AS (SELECT d.doc_id % 5 AS ca,
             ((d.doc_id * 7919 + k.k * 104729) % nn.n) % 5 AS cb
      FROM documents d, (SELECT unnest([1, 2, 3]) AS k) k, nn),
cell AS (SELECT ca, cb, CAST(COUNT(*) AS BIGINT) AS c
         FROM e GROUP BY 1, 2),
m AS (SELECT CAST(SUM(c) AS BIGINT) AS m FROM cell),
per AS (SELECT ca AS community,
               CAST(SUM(CASE WHEN ca = cb THEN c ELSE 0 END)
                    AS BIGINT) AS e_within,
               CAST(SUM(c) AS BIGINT) AS out_deg
        FROM cell GROUP BY 1),
ind AS (SELECT cb AS community, CAST(SUM(c) AS BIGINT) AS in_deg
        FROM cell GROUP BY 1)
SELECT per.community, per.e_within, per.out_deg, ind.in_deg,
       ROUND(CAST(e_within AS DOUBLE) / m.m
             - (CAST(out_deg AS DOUBLE) / m.m)
               * (CAST(in_deg AS DOUBLE) / m.m), 6) AS q_contrib
FROM per JOIN ind USING (community), m ORDER BY community
"""


def q_mrr_at_10_by_source(sf_dir: str):
    """Mean-reciprocal-rank companion to the nDCG eval: per source,
    1/rank of the FIRST fully-relevant doc (grade doc_id%4 == 3)
    within the top-10 of the (n_chars DESC, doc_id) ranking, 0 when
    none lands in the window — the metric for 'did the answer show up
    near the top'.  Same monotone per-batch top-10 combiner as nDCG;
    the finish is |sources| rows."""
    docs = _read(sf_dir, "documents", ["doc_id", "n_chars", "source"])

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "source": t["source"].to_pandas(),
            "doc_id": t["doc_id"].to_numpy(zero_copy_only=False),
            "n_chars": t["n_chars"].to_numpy(zero_copy_only=False)})
        top = df.sort_values(["n_chars", "doc_id"],
                             ascending=[False, True]) \
            .groupby("source", sort=False).head(10)
        return pa.Table.from_pandas(top, preserve_index=False)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        top = g.sort_values(["n_chars", "doc_id"],
                            ascending=[False, True]).head(10)
        rel = (top["doc_id"].to_numpy(np.int64) % 4 == 3)
        hit = np.nonzero(rel)[0]
        rank = int(hit[0]) + 1 if len(hit) else 0
        return pd.DataFrame({
            "source": [g["source"].iloc[0]],
            "first_rel_rank": [rank],
            "rr": [round(1.0 / rank, 6) if rank else 0.0]})

    res = relational.ds_to_table(
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("source").map_groups(finish, batch_format="pandas")
    ).to_pandas()
    return res.sort_values("source").reset_index(drop=True)


SQL_MRR = """
WITH r AS (SELECT source, doc_id,
                  ROW_NUMBER() OVER (PARTITION BY source
                    ORDER BY n_chars DESC, doc_id) AS rn
           FROM documents),
f AS (SELECT source, MIN(rn) AS rank FROM r
      WHERE rn <= 10 AND doc_id % 4 = 3 GROUP BY 1),
s AS (SELECT DISTINCT source FROM documents)
SELECT s.source,
       CAST(COALESCE(f.rank, 0) AS BIGINT) AS first_rel_rank,
       CASE WHEN f.rank IS NULL THEN 0.0
            ELSE ROUND(1.0 / f.rank, 6) END AS rr
FROM s LEFT JOIN f USING (source) ORDER BY source
"""


def q_good_turing_unseen_mass(sf_dir: str):
    """Good–Turing unseen-probability mass per source: P₀ = N₁/N
    (singleton share of tokens) — the language-modelling estimate of
    how much probability belongs to words the crawl has NOT seen yet,
    plus the smoothed counts r* = (r+1)·S(r+1)/S(r) for r = 1, 2.
    Two bounded reduces: (source, word) counts then the
    frequency-of-frequencies table — the vocabulary shuffles once,
    the FoF table is tiny."""
    from ray.data.aggregate import Sum

    docs = _read(sf_dir, "documents", ["source", "text"])

    def tok_partial(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t["text"], pattern=" ")
        lens = pc.list_value_length(parts).to_numpy(
            zero_copy_only=False).astype(np.int64)
        src = np.repeat(t["source"].to_numpy(zero_copy_only=False),
                        lens)
        w = pc.list_flatten(parts).to_numpy(zero_copy_only=False)
        g = pd.DataFrame({"source": src, "w": w, "c": 1}) \
            .groupby(["source", "w"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    def fof_partial(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({
            "source": t["source"].to_pandas(),
            "r": t["c"].to_numpy(zero_copy_only=False),
            "s": 1,
            "tok": t["c"].to_numpy(zero_copy_only=False)}) \
            .groupby(["source", "r"], sort=False) \
            .agg(s=("s", "sum"), tok=("tok", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    fof = relational.ds_to_table(
        docs.map_batches(tok_partial, batch_format="pyarrow")
        .groupby(["source", "w"]).aggregate(Sum("c", alias_name="c"))
        .map_batches(fof_partial, batch_format="pyarrow")
        .groupby(["source", "r"]).aggregate(
            Sum("s", alias_name="s"), Sum("tok", alias_name="tok"))
    ).to_pandas()
    rows = []
    for src, g in fof.groupby("source"):
        m = dict(zip(g["r"].astype(int), g["s"].astype(int)))
        n_tok = int(g["tok"].sum())
        s1, s2, s3 = m.get(1, 0), m.get(2, 0), m.get(3, 0)
        rows.append({
            "source": src, "n_tokens": n_tok, "s1": s1,
            "p0": round(float(s1) / n_tok, 6),
            "rstar1": round(2.0 * s2 / s1, 6) if s1 else 0.0,
            "rstar2": round(3.0 * s3 / s2, 6) if s2 else 0.0})
    return pd.DataFrame(rows).sort_values("source") \
        .reset_index(drop=True)


SQL_GOOD_TURING = """
WITH tok AS (SELECT source, unnest(string_split(text, ' ')) AS w
             FROM documents),
wc AS (SELECT source, w, CAST(COUNT(*) AS BIGINT) AS c
       FROM tok GROUP BY 1, 2),
fof AS (SELECT source, c AS r, CAST(COUNT(*) AS BIGINT) AS s,
               CAST(SUM(c) AS BIGINT) AS tok
        FROM wc GROUP BY 1, 2),
per AS (SELECT source, CAST(SUM(tok) AS BIGINT) AS n_tokens,
               CAST(SUM(CASE WHEN r = 1 THEN s ELSE 0 END)
                    AS BIGINT) AS s1,
               SUM(CASE WHEN r = 2 THEN s ELSE 0 END) AS s2,
               SUM(CASE WHEN r = 3 THEN s ELSE 0 END) AS s3
        FROM fof GROUP BY 1)
SELECT source, n_tokens, s1,
       ROUND(CAST(s1 AS DOUBLE) / n_tokens, 6) AS p0,
       CASE WHEN s1 > 0 THEN ROUND(2.0 * s2 / s1, 6)
            ELSE 0.0 END AS rstar1,
       CASE WHEN s2 > 0 THEN ROUND(3.0 * s3 / s2, 6)
            ELSE 0.0 END AS rstar2
FROM per ORDER BY source
"""


def q_burrows_delta_sources(sf_dir: str):
    """Burrows' Delta stylometric distance between sources over the
    top-50 corpus words — the authorship-attribution classic: z-score
    each word's usage RATE across sources, Delta(a,b) = mean |z_a −
    z_b|; the 5 closest pairs are the crawls that 'write alike'
    (template reuse, mirrored feeds).  Exact-count reduces end to
    end: top-50 selection under the total (count DESC, word) order is
    a safe per-block prune; the z/Delta finish is a
    |sources|×50 matrix."""
    from ray.data.aggregate import Sum

    docs = _read(sf_dir, "documents", ["source", "text"])

    def wc_partial(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t["text"], pattern=" ")
        lens = pc.list_value_length(parts).to_numpy(
            zero_copy_only=False).astype(np.int64)
        src = np.repeat(t["source"].to_numpy(zero_copy_only=False),
                        lens)
        w = pc.list_flatten(parts).to_numpy(zero_copy_only=False)
        g = pd.DataFrame({"source": src, "w": w, "c": 1}) \
            .groupby(["source", "w"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    sw = docs.map_batches(wc_partial, batch_format="pyarrow") \
        .groupby(["source", "w"]).aggregate(Sum("c", alias_name="c")) \
        .materialize()

    def top_prune(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({"w": t["w"].to_pandas(),
                          "c": t["c"].to_numpy(zero_copy_only=False)})
        g = g.groupby("w", sort=False).sum().reset_index()
        return pa.Table.from_pandas(
            g.sort_values(["c", "w"], ascending=[False, True])
            .head(50), preserve_index=False)

    gw = relational.ds_to_table(
        sw.map_batches(lambda t: pa.table({"w": t["w"], "c": t["c"]}),
                       batch_format="pyarrow")
        .groupby("w").aggregate(Sum("c", alias_name="c"))
        .map_batches(top_prune, batch_format="pyarrow")).to_pandas()
    top = gw.sort_values(["c", "w"], ascending=[False, True]) \
        .head(50)["w"].tolist()
    top_ref = ray.put(set(top))

    def only_top(t: pa.Table) -> pa.Table:    # vocabulary never
        w = t["w"].to_numpy(zero_copy_only=False)     # reaches the
        keep = np.fromiter((x in ray.get(top_ref) for x in w),
                           np.bool_, len(w))          # driver
        return t.filter(pa.array(keep))

    tot = relational.ds_to_table(
        sw.map_batches(lambda t: pa.table(
            {"source": t["source"], "c": t["c"]}),
            batch_format="pyarrow")
        .groupby("source").aggregate(Sum("c", alias_name="c"))
    ).to_pandas().set_index("source")["c"]
    mat = relational.ds_to_table(
        sw.map_batches(only_top, batch_format="pyarrow")).to_pandas()
    srcs = sorted(tot.index)
    S = len(srcs)
    piv = mat.pivot_table(
        index="source", columns="w", values="c", fill_value=0,
        aggfunc="sum").reindex(index=srcs, columns=sorted(top),
                               fill_value=0)
    r = piv.to_numpy(np.float64) \
        / tot.reindex(srcs).to_numpy(np.int64).astype(
            np.float64)[:, None]
    mu = r.sum(axis=0) / S
    var = (r * r).sum(axis=0) / S - mu * mu
    sd = np.sqrt(var)
    keep = sd > 0
    z = (r[:, keep] - mu[keep]) / sd[keep]
    nw = int(keep.sum())
    rows = []
    for i in range(S):
        for j in range(i + 1, S):
            d = float(np.abs(z[i] - z[j]).sum()) / nw
            rows.append({"src_a": srcs[i], "src_b": srcs[j],
                         "delta": round(d, 6)})
    out = pd.DataFrame(rows)
    return out.sort_values(["delta", "src_a", "src_b"]).head(5) \
        .reset_index(drop=True)


SQL_BURROWS_DELTA = """
WITH tok AS (SELECT source, unnest(string_split(text, ' ')) AS w
             FROM documents),
wc AS (SELECT source, w, CAST(COUNT(*) AS BIGINT) AS c
       FROM tok GROUP BY 1, 2),
topw AS (SELECT w FROM (SELECT w, SUM(c) AS c FROM wc GROUP BY 1)
         ORDER BY c DESC, w LIMIT 50),
st AS (SELECT source, CAST(SUM(c) AS BIGINT) AS tot
       FROM wc GROUP BY 1),
ns AS (SELECT CAST(COUNT(*) AS BIGINT) AS s FROM st),
grid AS (SELECT st.source, st.tot, topw.w FROM st CROSS JOIN topw),
r AS (SELECT grid.source, grid.w,
             COALESCE(wc.c, 0) / CAST(grid.tot AS DOUBLE) AS r
      FROM grid LEFT JOIN wc
        ON wc.source = grid.source AND wc.w = grid.w),
stat AS (SELECT w, SUM(r) / s AS mu, SUM(r * r) / s AS m2
         FROM r, ns GROUP BY w, s),
z AS (SELECT r.source, r.w,
             (r.r - stat.mu) / SQRT(stat.m2 - stat.mu * stat.mu)
               AS z
      FROM r JOIN stat USING (w)
      WHERE stat.m2 - stat.mu * stat.mu > 0),
nw AS (SELECT CAST(COUNT(DISTINCT w) AS BIGINT) AS nw FROM z),
pair AS (SELECT a.source AS src_a, b.source AS src_b,
                SUM(ABS(a.z - b.z)) / nw.nw AS delta
         FROM z a JOIN z b ON a.w = b.w AND a.source < b.source,
              nw
         GROUP BY 1, 2, nw.nw)
SELECT src_a, src_b, ROUND(delta, 6) AS delta
FROM pair ORDER BY ROUND(delta, 6), src_a, src_b LIMIT 5
"""


def q_uncertainty_coefficient(sf_dir: str):
    """Theil's uncertainty coefficient between document language and
    source — the ASYMMETRIC categorical association ('knowing the
    source, how much of the language uncertainty disappears?') that
    chi²/Cramér's V can't answer because they're symmetric.  One
    bounded (lang, source) contingency reduce; H(lang), H(source),
    H(joint), MI and both U directions are mirrored -Σ p ln p sums
    over ≤ |langs|·|sources| cells."""
    from ray.data.aggregate import Sum

    docs = _read(sf_dir, "documents", ["lang", "source"])

    def partial(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({"lang": t["lang"].to_pandas(),
                          "source": t["source"].to_pandas(),
                          "c": 1}) \
            .groupby(["lang", "source"], sort=False).sum() \
            .reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    ct = relational.ds_to_table(
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "source"]).aggregate(
            Sum("c", alias_name="c"))).to_pandas()
    N = int(ct["c"].sum())

    def ent(counts: np.ndarray) -> float:
        p = counts.astype(np.float64) / N
        return float(-(p * np.log(p)).sum())

    h_lang = ent(ct.groupby("lang")["c"].sum().to_numpy(np.int64))
    h_src = ent(ct.groupby("source")["c"].sum().to_numpy(np.int64))
    h_joint = ent(ct["c"].to_numpy(np.int64))
    mi = h_lang + h_src - h_joint
    return pd.DataFrame({
        "n_docs": [N], "h_lang": [round(h_lang, 6)],
        "h_source": [round(h_src, 6)],
        "h_joint": [round(h_joint, 6)], "mi": [round(mi, 6)],
        "u_lang_given_source": [round(mi / h_lang, 6)],
        "u_source_given_lang": [round(mi / h_src, 6)]})


SQL_UNCERTAINTY = """
WITH ct AS (SELECT lang, source, CAST(COUNT(*) AS BIGINT) AS c
            FROM documents GROUP BY 1, 2),
n AS (SELECT CAST(SUM(c) AS BIGINT) AS n FROM ct),
hl AS (SELECT SUM(-(CAST(cl AS DOUBLE) / n)
               * LN(CAST(cl AS DOUBLE) / n)) AS h
       FROM (SELECT lang, SUM(c) AS cl FROM ct GROUP BY 1), n),
hs AS (SELECT SUM(-(CAST(cs AS DOUBLE) / n)
               * LN(CAST(cs AS DOUBLE) / n)) AS h
       FROM (SELECT source, SUM(c) AS cs FROM ct GROUP BY 1), n),
hj AS (SELECT SUM(-(CAST(c AS DOUBLE) / n)
               * LN(CAST(c AS DOUBLE) / n)) AS h FROM ct, n)
SELECT n.n AS n_docs, ROUND(hl.h, 6) AS h_lang,
       ROUND(hs.h, 6) AS h_source, ROUND(hj.h, 6) AS h_joint,
       ROUND(hl.h + hs.h - hj.h, 6) AS mi,
       ROUND((hl.h + hs.h - hj.h) / hl.h, 6)
         AS u_lang_given_source,
       ROUND((hl.h + hs.h - hj.h) / hs.h, 6)
         AS u_source_given_lang
FROM n, hl, hs, hj
"""


def q_avg_neighbor_degree(sf_dir: str):
    """Average neighbor in-degree by node in-degree class over the
    formula link graph — the knn(k) assortativity CURVE (rising ⇒
    hubs attach to hubs) that the single assortativity scalar
    summarizes away.  In-degrees fold in one reduce; the edge scan
    then looks BOTH endpoints up in the broadcast degree array (node-
    bounded; the bucketed twin-join path takes over past the array
    budget) and reduces to ≤ max-degree rows."""
    from ray.data.aggregate import Sum

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()

    def edges(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        src = np.repeat(d, 3)
        k = np.tile(np.array([1, 2, 3], dtype=np.int64), len(d))
        dst = (src * src * 31 + k * 104729) % n
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    e = docs.map_batches(edges, batch_format="pyarrow")
    ind = relational.ds_to_table(
        e.map_batches(lambda t: pa.table({
            "v": t["dst"],
            "c": pa.array(np.ones(t.num_rows, dtype=np.int64))}),
            batch_format="pyarrow")
        .groupby("v").aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    deg = np.zeros(n, dtype=np.int64)
    deg[ind["v"].to_numpy(np.int64)] = ind["c"].to_numpy(np.int64)
    dref = ray.put(deg)

    def per_edge(t: pa.Table) -> pa.Table:
        dg = ray.get(dref)
        src = t["src"].to_numpy(zero_copy_only=False)
        dst = t["dst"].to_numpy(zero_copy_only=False)
        g = pd.DataFrame({"d": dg[src], "s": dg[dst], "c": 1}) \
            .groupby("d", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    res = relational.ds_to_table(
        e.map_batches(per_edge, batch_format="pyarrow")
        .groupby("d").aggregate(Sum("s", alias_name="s"),
                                Sum("c", alias_name="m"))
    ).to_pandas().sort_values("d").reset_index(drop=True)
    return pd.DataFrame({
        "in_degree": res["d"].astype(np.int64),
        "n_edges": res["m"].astype(np.int64),
        "avg_nbr_in_degree": np.round(
            res["s"].to_numpy(np.int64).astype(np.float64)
            / res["m"].to_numpy(np.int64), 6)})


SQL_AVG_NBR_DEGREE = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
e AS (SELECT d.doc_id AS src,
             (d.doc_id * d.doc_id * 31 + k.k * 104729) % nn.n AS dst
      FROM documents d, (SELECT unnest([1, 2, 3]) AS k) k, nn),
ind AS (SELECT dst AS v, CAST(COUNT(*) AS BIGINT) AS c
        FROM e GROUP BY 1),
dg AS (SELECT d.doc_id AS v, COALESCE(ind.c, 0) AS c
       FROM documents d LEFT JOIN ind ON ind.v = d.doc_id),
j AS (SELECT a.c AS d, b.c AS s
      FROM e JOIN dg a ON a.v = e.src JOIN dg b ON b.v = e.dst)
SELECT d AS in_degree, CAST(COUNT(*) AS BIGINT) AS n_edges,
       ROUND(CAST(SUM(s) AS DOUBLE) / COUNT(*), 6)
         AS avg_nbr_in_degree
FROM j GROUP BY 1 ORDER BY 1
"""


def q_max_f1_threshold(sf_dir: str):
    """Max-F1 operating point of the shared logreg document scorer —
    given the full score distribution, which threshold maximizes the
    precision/recall harmonic mean (the single number a binary
    deployment actually ships with).  The (score → pos, neg) table is
    bounded by the 6-dp quantization; F1 at every candidate threshold
    comes from one descending cumsum, ties broken toward the HIGHER
    threshold like the twin."""
    from ray.data.aggregate import Sum

    scored = _doc_logreg_scored(sf_dir)
    g = relational.ds_to_table(
        scored.map_batches(lambda t: pa.table({
            "score": t["score"], "pos": t["label"],
            "c": pa.array(np.ones(t.num_rows, dtype=np.int64))}),
            batch_format="pyarrow")
        .groupby("score").aggregate(Sum("pos", alias_name="pos"),
                                    Sum("c", alias_name="c"))
    ).to_pandas().sort_values("score", ascending=False) \
        .reset_index(drop=True)
    P = int(g["pos"].sum())
    tp = np.cumsum(g["pos"].to_numpy(np.int64))
    n_pred = np.cumsum(g["c"].to_numpy(np.int64))
    fp = n_pred - tp
    fn = P - tp
    f1 = np.round(2.0 * tp / (2.0 * tp + fp + fn), 6)
    best = int(np.lexsort((-g["score"].to_numpy(), -f1))[0])
    return pd.DataFrame({
        "threshold": [float(g["score"].iloc[best])],
        "tp": [int(tp[best])], "fp": [int(fp[best])],
        "fn": [int(fn[best])], "f1": [float(f1[best])]})


SQL_MAX_F1 = """
WITH f AS (
  SELECT n_chars / 1000.0 AS x1,
         len(string_split(text, ' ')) / 100.0 AS x2,
         CASE WHEN n_chars > 297 THEN 1 ELSE 0 END AS label
  FROM documents),
s AS (SELECT label,
             ROUND(1.0 / (1.0 + exp(-(0.25 + 0.8 * x1 - 0.5 * x2))),
                   6) AS score
      FROM f),
g AS (SELECT score, CAST(SUM(label) AS BIGINT) AS pos,
             CAST(COUNT(*) AS BIGINT) AS c
      FROM s GROUP BY 1),
p AS (SELECT CAST(SUM(pos) AS BIGINT) AS p FROM g),
w AS (SELECT score,
             SUM(pos) OVER (ORDER BY score DESC
                            ROWS UNBOUNDED PRECEDING) AS tp,
             SUM(c) OVER (ORDER BY score DESC
                          ROWS UNBOUNDED PRECEDING) AS np
      FROM g),
e AS (SELECT score, tp, np - tp AS fp, p.p - tp AS fn,
             ROUND(2.0 * tp / (2.0 * tp + (np - tp) + (p.p - tp)),
                   6) AS f1
      FROM w, p)
SELECT score AS threshold, CAST(tp AS BIGINT) AS tp,
       CAST(fp AS BIGINT) AS fp, CAST(fn AS BIGINT) AS fn, f1
FROM e ORDER BY f1 DESC, score DESC LIMIT 1
"""


def q_term_burstiness(sf_dir: str):
    """Church–Gale burstiness of the top-20 corpus words: observed
    document frequency vs the Poisson expectation D·(1 − e^(−tf/D))
    — content words CLUMP (df ≪ expected, ratio < 1) while function
    words scatter; the signal behind stop-word lists and
    keyword-ness.  One tf reduce picks the top words (total-order
    prune), a second df pass counts only the broadcast top set."""
    from ray.data.aggregate import Sum

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    D = docs.count()

    def tf_partial(t: pa.Table) -> pa.Table:
        flat = pc.list_flatten(pc.split_pattern(t["text"],
                                                pattern=" "))
        w = flat.to_numpy(zero_copy_only=False)
        g = pd.DataFrame({"w": w, "c": 1}) \
            .groupby("w", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    def prune(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({"w": t["w"].to_pandas(),
                          "c": t["c"].to_numpy(zero_copy_only=False)})
        return pa.Table.from_pandas(
            g.sort_values(["c", "w"], ascending=[False, True])
            .head(20), preserve_index=False)

    tf = relational.ds_to_table(
        docs.map_batches(tf_partial, batch_format="pyarrow")
        .groupby("w").aggregate(Sum("c", alias_name="c"))
        .map_batches(prune, batch_format="pyarrow")).to_pandas() \
        .sort_values(["c", "w"], ascending=[False, True]).head(20)
    top_ref = ray.put(set(tf["w"]))

    def df_partial(t: pa.Table) -> pa.Table:
        cand = ray.get(top_ref)
        parts = pc.split_pattern(t["text"], pattern=" ")
        lens = pc.list_value_length(parts).to_numpy(
            zero_copy_only=False).astype(np.int64)
        w = pc.list_flatten(parts).to_numpy(zero_copy_only=False)
        row = np.repeat(np.arange(len(lens)), lens)
        keep = np.fromiter((x in cand for x in w), np.bool_, len(w))
        g = pd.DataFrame({"w": w[keep], "row": row[keep]}) \
            .drop_duplicates()
        g = g.groupby("w", sort=False).size().rename("d") \
            .reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    dfc = relational.ds_to_table(
        docs.map_batches(df_partial, batch_format="pyarrow")
        .groupby("w").aggregate(Sum("d", alias_name="df"))
    ).to_pandas()
    out = tf.merge(dfc, on="w").rename(columns={"c": "tf",
                                                "w": "word"})
    tfv = out["tf"].to_numpy(np.int64).astype(np.float64)
    dfv = out["df"].to_numpy(np.int64).astype(np.float64)
    exp_df = D * (1.0 - np.exp(-(tfv / D)))
    out["expected_df"] = np.round(exp_df, 6)
    out["burst_ratio"] = np.round(dfv / exp_df, 6)
    return out.sort_values("word").reset_index(drop=True) \
        .astype({"tf": np.int64, "df": np.int64})


SQL_BURSTINESS = """
WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS w
             FROM documents),
dd AS (SELECT CAST(COUNT(*) AS BIGINT) AS d FROM documents),
tf AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS tf
       FROM tok GROUP BY 1 ORDER BY tf DESC, w LIMIT 20),
dfc AS (SELECT w, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df
        FROM tok WHERE w IN (SELECT w FROM tf) GROUP BY 1)
SELECT tf.w AS word, tf.tf, dfc.df,
       ROUND(dd.d * (1.0 - EXP(-(CAST(tf.tf AS DOUBLE) / dd.d))),
             6) AS expected_df,
       ROUND(CAST(dfc.df AS DOUBLE)
             / (dd.d * (1.0 - EXP(-(CAST(tf.tf AS DOUBLE)
                                    / dd.d)))), 6) AS burst_ratio
FROM tf JOIN dfc USING (w), dd ORDER BY word
"""


def q_adamic_adar_links(sf_dir: str):
    """Adamic–Adar link prediction over the links graph: for every
    NON-edge pair, aa(u,v) = Σ_{w ∈ CN(u,v)} 1/ln(deg(w)) — the
    hub-discounted refinement of common-neighbor counting (a shared
    neighbor with 2 edges is strong evidence; one with 200 is noise).
    Common neighbors enumerate at the pivot w exactly as in
    ``link_prediction_cn``, but each pair carries the PIVOT'S DEGREE:
    partials aggregate per (a, b, deg) with exact integer counts, so
    the float Σ cnt/ln(deg) finish happens once per pair with deg ≥ 2
    guaranteed (a common neighbor touches both endpoints — ln never
    sees 1).  Ordering is on the 6dp-ROUNDED score so a 1-ulp
    summation-order wobble can't flip the top-25; ties break (a, b).
    Per-key cap OFF — exactness is the contract (cap for power-law
    graphs and document the recall tradeoff)."""
    from ray.data.aggregate import Sum

    import ray

    from ...stages.graph_ops import _normalize_undirected
    from ...stages.relational import (_pair_index, stable_bucket,
                                     worker_cached)
    edges, n = _synthetic_links(sf_dir)
    und = _normalize_undirected(edges, "src", "dst").materialize()

    def deg_partial(t: pa.Table) -> pa.Table:
        nn = np.concatenate(
            [t["ea"].to_numpy(zero_copy_only=False),
             t["eb"].to_numpy(zero_copy_only=False)]).astype(np.int64)
        uniq, cnt = np.unique(nn, return_counts=True)
        return pa.table({"node": pa.array(uniq),
                         "pn": pa.array(cnt.astype(np.int64))})

    deg = relational.ds_to_table(
        und.map_batches(deg_partial, batch_format="pyarrow")
        .groupby("node").aggregate(Sum("pn", alias_name="deg")))
    ids = deg["node"].to_numpy(zero_copy_only=False).astype(np.int64)
    dv = deg["deg"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(ids)
    deg_ref = ray.put((ids[order], dv[order]))

    und_t = relational.ds_to_table(und)
    edge_keys = np.sort(
        und_t["ea"].to_numpy(zero_copy_only=False).astype(np.int64)
        * (1 << 32)
        + und_t["eb"].to_numpy(zero_copy_only=False).astype(np.int64))
    ek_ref = ray.put(edge_keys)

    def tag(t: pa.Table) -> pa.Table:
        g = _sym_adjacency(t).group_by(["pivot", "leaf"]).aggregate([])
        return g.append_column(
            "_bucket", pa.array(stable_bucket(g["pivot"], 64)))

    def explode(df: pd.DataFrame) -> pa.Table:
        _ids, _dv = worker_cached(("aa_deg", deg_ref),
                                  lambda: ray.get(deg_ref))
        df = df.drop_duplicates(["pivot", "leaf"]) \
            .sort_values(["pivot", "leaf"])
        k = df.groupby("pivot", sort=False).size().to_numpy()
        vals = df["leaf"].to_numpy()
        piv = df["pivot"].to_numpy()
        off = np.zeros(len(k) + 1, dtype=np.int64)
        np.cumsum(k, out=off[1:])
        n_pairs = k * (k - 1) // 2
        key_rep = np.repeat(np.arange(len(k)), n_pairs)
        p = _pair_index(n_pairs)
        a = vals[off[key_rep] + p[0]]
        b = vals[off[key_rep] + p[1]]
        dp = _dv[np.searchsorted(_ids, piv[off[key_rep]])]
        g = pd.DataFrame({"a": a, "b": b, "dp": dp, "pn": 1}) \
            .groupby(["a", "b", "dp"], sort=False).sum().reset_index()
        g["_pb"] = (stable_bucket(pa.array(g["a"]), 64)
                    .astype(np.int64) * 31
                    + stable_bucket(pa.array(g["b"]), 64)) % 64
        return pa.Table.from_pandas(g, preserve_index=False)

    def merge(df: pd.DataFrame) -> pa.Table:
        g = df.groupby(["a", "b", "dp"], sort=False)["pn"].sum() \
            .reset_index().sort_values(["a", "b", "dp"])
        terms = g["pn"].to_numpy(np.float64) \
            / np.log(g["dp"].to_numpy(np.float64))
        gg = pd.DataFrame({"a": g["a"], "b": g["b"],
                           "cn": g["pn"], "t": terms}) \
            .groupby(["a", "b"], sort=False) \
            .agg(cn=("cn", "sum"), aa=("t", "sum")).reset_index()
        return pa.Table.from_pandas(gg, preserve_index=False)

    def drop_edges(t: pa.Table) -> pa.Table:
        ek = worker_cached(("aa_edges", ek_ref),
                           lambda: ray.get(ek_ref))
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        key = a * (1 << 32) + b
        pos = np.minimum(np.searchsorted(ek, key), len(ek) - 1)
        out = t.filter(pa.array(ek[pos] != key))
        aar = np.round(out["aa"].to_numpy(zero_copy_only=False), 6)
        out = out.set_column(out.schema.get_field_index("aa"),
                             "aa", pa.array(aar))
        return out.sort_by([("aa", "descending"), ("a", "ascending"),
                            ("b", "ascending")]).slice(0, 25)

    pruned = relational.ds_to_table(
        und.map_batches(tag, batch_format="pyarrow")
        .groupby("_bucket").map_groups(explode, batch_format="pandas")
        .groupby("_pb").map_groups(merge, batch_format="pandas")
        .map_batches(drop_edges, batch_format="pyarrow"))
    top = pruned.sort_by([("aa", "descending"), ("a", "ascending"),
                          ("b", "ascending")]).slice(0, 25).to_pandas()
    return top[["a", "b", "cn", "aa"]].astype(
        {"a": np.int64, "b": np.int64, "cn": np.int64})


SQL_ADAMIC_ADAR = f"""
WITH {_SQL_LINKS_CTE},
deg AS (SELECT u AS node, CAST(COUNT(*) AS BIGINT) AS deg
        FROM sym GROUP BY 1),
cnd AS (SELECT e1.v AS a, e2.v AS b, d.deg AS dp,
               CAST(COUNT(*) AS BIGINT) AS cnt
        FROM sym e1 JOIN sym e2 ON e1.u = e2.u AND e1.v < e2.v
        JOIN deg d ON d.node = e1.u
        GROUP BY 1, 2, 3),
agg AS (SELECT a, b, CAST(SUM(cnt) AS BIGINT) AS cn,
               SUM(CAST(cnt AS DOUBLE) / LN(CAST(dp AS DOUBLE)))
                 AS aa
        FROM cnd GROUP BY 1, 2),
nonedge AS (SELECT agg.* FROM agg
            LEFT JOIN und ON agg.a = und.a AND agg.b = und.b
            WHERE und.a IS NULL)
SELECT a, b, cn, ROUND(aa, 6) AS aa FROM nonedge
ORDER BY ROUND(aa, 6) DESC, a, b LIMIT 25
"""


def q_isotonic_calibration(sf_dir: str):
    """Isotonic (PAV) calibration of the shared logreg document scorer
    over the ECE query's 100 equal-width score bins — the
    monotone-regression recalibration step between a raw scorer and a
    decision threshold.  The sequential pool-adjacent-violators loop is
    replaced by its MINIMAX CLOSED FORM over the bounded bin table,
    ŷᵢ = max_{j≤i} min_{k≥i} (Σ pos[j..k]) / (Σ n[j..k]), which is
    order-free and hence exactly mirrorable: every candidate average is
    ONE double division of exact-int prefix-sum differences, identical
    on both sides, and MIN/MAX over identical double sets cannot
    diverge.  Distributed part = the same bounded (bin × label) count
    reduce as ECE; the O(B²) finish runs on ≤100 observed bins."""
    from ray.data.aggregate import Sum

    scored = _doc_logreg_scored(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        s = t["score"].to_numpy(zero_copy_only=False)
        b = np.minimum(99, np.floor(s * 100).astype(np.int64))
        g = pd.DataFrame({"bin": b,
                          "pos": t["label"].to_numpy(
                              zero_copy_only=False), "c": 1}) \
            .groupby("bin", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        scored.map_batches(partial, batch_format="pyarrow")
        .groupby("bin").aggregate(Sum("pos", alias_name="pos"),
                                  Sum("c", alias_name="n"))
    ).to_pandas().sort_values("bin").reset_index(drop=True)

    nb = agg["n"].to_numpy(np.int64)
    ps = agg["pos"].to_numpy(np.int64)
    B = len(nb)
    cn = np.cumsum(nb)
    cp = np.cumsum(ps)
    # avg[j, k] = pos[j..k] / n[j..k] for j <= k (upper triangle)
    num = (cp[None, :] - cp[:, None] + ps[:, None]).astype(np.float64)
    den = (cn[None, :] - cn[:, None] + nb[:, None]).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        avg = num / den
    jj, kk = np.indices((B, B))
    avg[jj > kk] = np.inf                 # invalid cells never win MIN
    # S[j, i] = min_{k >= i} avg[j, k]: suffix-cummin along k
    smin = np.minimum.accumulate(avg[:, ::-1], axis=1)[:, ::-1]
    smin[jj > kk] = -np.inf               # j > i cells never win MAX
    iso = np.diagonal(np.maximum.accumulate(smin, axis=0))
    rate = ps.astype(np.float64) / nb.astype(np.float64)
    return pd.DataFrame({
        "bin": agg["bin"].to_numpy(np.int64),
        "n_rows": nb, "pos": ps,
        "rate": np.round(rate, 6),
        "iso_rate": np.round(iso, 6)})


SQL_ISOTONIC = """
WITH f AS (
  SELECT n_chars / 1000.0 AS x1,
         len(string_split(text, ' ')) / 100.0 AS x2,
         CASE WHEN n_chars > 297 THEN 1 ELSE 0 END AS label
  FROM documents),
s AS (SELECT label,
             ROUND(1.0 / (1.0 + exp(-(0.25 + 0.8 * x1 - 0.5 * x2))),
                   6) AS score
      FROM f),
g AS (SELECT LEAST(99, CAST(FLOOR(score * 100) AS BIGINT)) AS bin,
             CAST(COUNT(*) AS BIGINT) AS n_rows,
             CAST(SUM(label) AS BIGINT) AS pos
      FROM s GROUP BY 1),
c AS (SELECT bin, n_rows, pos,
             SUM(n_rows) OVER (ORDER BY bin) AS cn,
             SUM(pos) OVER (ORDER BY bin) AS cp
      FROM g),
a AS (SELECT j.bin AS j, k.bin AS k,
             CAST(k.cp - j.cp + j.pos AS DOUBLE)
               / CAST(k.cn - j.cn + j.n_rows AS DOUBLE) AS avg
      FROM c j JOIN c k ON j.bin <= k.bin),
m AS (SELECT i.bin AS bin, a.j, MIN(a.avg) AS mn
      FROM a JOIN g i ON a.j <= i.bin AND a.k >= i.bin
      GROUP BY 1, 2),
iso AS (SELECT bin, MAX(mn) AS iso FROM m GROUP BY 1)
SELECT g.bin, g.n_rows, g.pos,
       ROUND(CAST(g.pos AS DOUBLE) / CAST(g.n_rows AS DOUBLE), 6)
         AS rate,
       ROUND(iso.iso, 6) AS iso_rate
FROM g JOIN iso USING (bin) ORDER BY g.bin
"""


_SOUNDEX_SRC = "AEIOUYBFPVCGJKQSXZDTLMNR"
_SOUNDEX_DST = "000000111122222222334556"


def _soundex_codes(words: pd.Series) -> pd.Series:
    """Vectorized American Soundex (shared mapping tables with the SQL
    twin): strip non-letters, H/W transparent (removed BEFORE run
    collapse so same-class consonants merge across them), vowels
    code 0 as run breakers then drop, first letter retained with its
    own leading code stripped, pad to letter+3.  Empty-after-strip
    words return ''."""
    t0 = words.str.upper().str.replace("[^A-Z]", "", regex=True)
    tr = str.maketrans(_SOUNDEX_SRC, _SOUNDEX_DST)
    t = t0.str.translate(str.maketrans("", "", "HW")) \
        .str.translate(tr)
    for d in "0123456":
        t = t.str.replace(f"{d}{d}+", d, regex=True)
    t4 = t.str.replace("0", "", regex=False)
    f = t0.str.slice(0, 1)
    fd = f.str.translate(tr)
    stripped = t4.where(t4.str.slice(0, 1) != fd, t4.str.slice(1))
    code = f + (stripped + "000").str.slice(0, 3)
    return code.where(t0 != "", "")


def q_soundex_top_codes(sf_dir: str):
    """Phonetic blocking index over the corpus vocabulary: American
    Soundex code per DISTINCT word, top-20 codes by distinct-word
    count — the classic record-linkage blocking key (names that sound
    alike land in one bucket regardless of spelling).  Word counts
    reduce distributed (the same partial-counts → vocab-groupby shape
    as top_words); the Soundex transform runs VECTORIZED over the
    vocab blocks with mapping tables shared verbatim with the SQL
    twin (DuckDB translate + 7 per-digit run-collapse regexes — RE2
    has no backreferences); the code domain is tiny, so the finish
    merges blocks×codes partials."""
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["text"])

    def wpartial(batch: pa.Table) -> pa.Table:
        parts = pc.split_pattern(batch["text"], pattern=" ")
        g = pa.table({"word": pc.list_flatten(parts)}) \
            .group_by("word").aggregate([("word", "count")])
        return pa.table({"word": g["word"],
                         "pcnt": g["word_count"].cast(pa.int64())})

    vocab = docs.map_batches(wpartial, batch_format="pyarrow") \
        .groupby("word").aggregate(Sum("pcnt", alias_name="n"))

    def code_partial(t: pa.Table) -> pa.Table:
        w = t["word"].to_pandas()
        code = _soundex_codes(w)
        keep = code != ""
        g = pd.DataFrame({"code": code[keep], "w": w[keep],
                          "n": t["n"].to_numpy(
                              zero_copy_only=False)[keep]}) \
            .groupby("code", sort=False) \
            .agg(n_words=("w", "size"), n_tokens=("n", "sum"),
                 example=("w", "min")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cand = relational.ds_to_table(
        vocab.map_batches(code_partial, batch_format="pyarrow")
    ).to_pandas()
    top = cand.groupby("code", sort=False) \
        .agg(n_words=("n_words", "sum"), n_tokens=("n_tokens", "sum"),
             example=("example", "min")).reset_index() \
        .sort_values(["n_words", "code"], ascending=[False, True]) \
        .head(20).reset_index(drop=True)
    return top.astype({"n_words": np.int64, "n_tokens": np.int64})


def _soundex_sql() -> str:
    """SQL twin generated from the SAME mapping tables as
    ``_soundex_codes`` so the two sides cannot drift."""
    collapse = "t2"
    for d in "0123456":
        collapse = (f"regexp_replace({collapse}, "
                    f"'{d}{d}+', '{d}', 'g')")
    return f"""
WITH w0 AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS n
            FROM (SELECT unnest(string_split(text, ' ')) AS w
                  FROM documents) GROUP BY w),
s0 AS (SELECT w, n,
              regexp_replace(upper(w), '[^A-Z]', '', 'g') AS t0
       FROM w0),
s1 AS (SELECT w, n, t0,
              translate(translate(t0, 'HW', ''),
                        '{_SOUNDEX_SRC}', '{_SOUNDEX_DST}') AS t2
       FROM s0 WHERE t0 <> ''),
s2 AS (SELECT w, n, t0, {collapse} AS t3 FROM s1),
s3 AS (SELECT w, n, t0, replace(t3, '0', '') AS t4 FROM s2),
s4 AS (SELECT w, n, substr(t0, 1, 1) AS f,
              translate(substr(t0, 1, 1),
                        '{_SOUNDEX_SRC}', '{_SOUNDEX_DST}') AS fd,
              t4 FROM s3),
s5 AS (SELECT w, n,
              f || substr(CASE WHEN substr(t4, 1, 1) = fd
                               THEN substr(t4, 2) ELSE t4 END
                          || '000', 1, 3) AS code
       FROM s4)
SELECT code, CAST(COUNT(*) AS BIGINT) AS n_words,
       CAST(SUM(n) AS BIGINT) AS n_tokens, MIN(w) AS example
FROM s5 GROUP BY 1 ORDER BY n_words DESC, code LIMIT 20
"""


def q_cramers_v_lang_source(sf_dir: str):
    """Bias-corrected Cramér's V between document language and source
    — the SYMMETRIC categorical-association companion to the
    uncertainty coefficient (U says who predicts whom; V says how
    strong the association is on a 0–1 scale, and the
    Bergsma–Wicher correction removes the small-sample inflation raw
    V is notorious for).  One bounded contingency reduce; χ² folds as
    Σ (o·n − rs·cs)²/(n·rs·cs) with arbitrary-precision integer
    numerators (HUGEINT twin) and one double division per cell; the
    correction is a handful of mirrored float expressions."""
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["lang", "source"])

    def partial(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({"lang": t["lang"].to_pandas(),
                          "source": t["source"].to_pandas(), "c": 1}) \
            .groupby(["lang", "source"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    ct = relational.ds_to_table(
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "source"]).aggregate(Sum("c", alias_name="o"))
    ).to_pandas()
    n = int(ct["o"].sum())
    rs = ct.groupby("lang")["o"].sum()
    cs = ct.groupby("source")["o"].sum()
    r, c = len(rs), len(cs)
    chi2 = sum(
        float((int(o) * n - int(rs[la]) * int(cs[so])) ** 2)
        / float(n * int(rs[la]) * int(cs[so]))
        for la, so, o in zip(ct["lang"], ct["source"], ct["o"]))
    # zero-count cells contribute (0·n − rs·cs)²/(n·rs·cs) = rs·cs/n
    present = set(zip(ct["lang"], ct["source"]))
    chi2 += sum(float(int(rs[la]) * int(cs[so])) / float(n)
                for la in rs.index for so in cs.index
                if (la, so) not in present)
    phi2 = chi2 / float(n)
    v = math.sqrt(phi2 / float(min(r - 1, c - 1)))
    phi2c = max(0.0, phi2 - float((r - 1) * (c - 1)) / float(n - 1))
    rc = float(r) - float((r - 1) ** 2) / float(n - 1)
    cc = float(c) - float((c - 1) ** 2) / float(n - 1)
    vc = math.sqrt(phi2c / min(rc - 1.0, cc - 1.0))
    return pd.DataFrame([{
        "n": n, "r": r, "c": c, "chi2": round(chi2, 6),
        "v": round(v, 6), "v_corrected": round(vc, 6)}]) \
        .astype({"n": np.int64, "r": np.int64, "c": np.int64})


SQL_CRAMERS_V = """
WITH o AS (SELECT lang, source, CAST(COUNT(*) AS BIGINT) AS o
           FROM documents GROUP BY 1, 2),
rs AS (SELECT lang, CAST(SUM(o) AS BIGINT) AS rs FROM o GROUP BY 1),
cs AS (SELECT source, CAST(SUM(o) AS BIGINT) AS cs FROM o GROUP BY 1),
tot AS (SELECT CAST(SUM(o) AS BIGINT) AS n,
               CAST(COUNT(DISTINCT lang) AS BIGINT) AS r,
               CAST(COUNT(DISTINCT source) AS BIGINT) AS c
        FROM o),
cells AS (SELECT rs.lang, cs.source, rs.rs, cs.cs,
                 COALESCE(o.o, 0) AS o
          FROM rs CROSS JOIN cs
          LEFT JOIN o ON o.lang = rs.lang AND o.source = cs.source),
x AS (SELECT SUM(CAST(CAST(cells.o * tot.n - cells.rs * cells.cs
                           AS HUGEINT)
                      * (cells.o * tot.n - cells.rs * cells.cs)
                      AS DOUBLE)
                 / CAST(CAST(tot.n AS HUGEINT) * cells.rs * cells.cs
                        AS DOUBLE)) AS chi2
      FROM cells, tot),
f AS (SELECT tot.n, tot.r, tot.c, x.chi2,
             x.chi2 / CAST(tot.n AS DOUBLE) AS phi2
      FROM x, tot)
SELECT n, r, c, ROUND(chi2, 6) AS chi2,
       ROUND(SQRT(phi2 / CAST(LEAST(r - 1, c - 1) AS DOUBLE)), 6) AS v,
       ROUND(SQRT(GREATEST(0.0, phi2 - CAST((r - 1) * (c - 1) AS DOUBLE)
                                 / CAST(n - 1 AS DOUBLE))
                  / LEAST(CAST(r AS DOUBLE)
                            - CAST((r - 1) * (r - 1) AS DOUBLE)
                              / CAST(n - 1 AS DOUBLE) - 1.0,
                          CAST(c AS DOUBLE)
                            - CAST((c - 1) * (c - 1) AS DOUBLE)
                              / CAST(n - 1 AS DOUBLE) - 1.0)), 6)
         AS v_corrected
FROM f
"""


_LSH_PLANES = np.round(
    np.random.default_rng(7).standard_normal((64, 8)) * 1000.0) \
    .astype(np.int64)


def q_lsh_hyperplane_pairs(sf_dir: str):
    """Random-hyperplane (cosine) LSH candidate pairs over the
    embedding table: 8 fixed integer-quantized hyperplanes give every
    vector an 8-bit sign bucket; same-bucket pairs are scored by
    exact cosine and the global top-20 returned — the sub-quadratic
    scale path beside the brute-force ANN family (at 100 TB the
    bucket groupby shuffles ids + 64 ints per vector, never pairs).
    EVERYTHING up to the final cosine is exact integer arithmetic:
    embeddings quantize to micro-units (a float32 value can never
    land on a .5 rounding tie — k/2·10⁶ has a 5⁶ factor no dyadic
    float carries), hyperplane dots and norms are int64 folds, so
    bucket bits and candidate sets are bit-identical to the generated
    64-term SQL twin; cosine is ONE mirrored float per pair, ordered
    on its 6dp rounding.  Pairs partition by bucket, so per-bucket
    top-20 partials are a monotone combiner."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    planes = _LSH_PLANES

    def tag(t: pa.Table) -> pa.Table:
        from ...stages.similarity import _as_matrix
        m = _as_matrix(t["embedding"]).astype(np.float64)
        q = np.round(m * 1_000_000.0).astype(np.int64)
        dots = q @ planes                      # (rows, 8) exact
        bits = (dots > 0).astype(np.int64)
        bucket = bits @ (1 << np.arange(8, dtype=np.int64))
        n2 = (q * q).sum(axis=1)
        cols = {"vec_id": t["vec_id"], "bucket": pa.array(bucket),
                "n2": pa.array(n2)}
        for i in range(64):
            cols[f"q{i}"] = pa.array(q[:, i])
        return pa.table(cols)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["vec_id"].to_numpy(np.int64)
        if len(ids) < 2:
            return pd.DataFrame({"va": pd.Series([], dtype=np.int64),
                                 "vb": pd.Series([], dtype=np.int64),
                                 "bucket": pd.Series([], dtype=np.int64),
                                 "cos": pd.Series([], dtype=np.float64)})
        order = np.argsort(ids)
        g = g.iloc[order]
        ids = ids[order]
        q = g[[f"q{i}" for i in range(64)]].to_numpy(np.int64)
        n2 = g["n2"].to_numpy(np.int64)
        gram = q @ q.T                         # exact int dots
        iu, ju = np.triu_indices(len(ids), k=1)
        cos = gram[iu, ju].astype(np.float64) \
            / np.sqrt(n2[iu].astype(np.float64)
                      * n2[ju].astype(np.float64))
        out = pd.DataFrame({"va": ids[iu], "vb": ids[ju],
                            "bucket": int(g["bucket"].iloc[0]),
                            "cos": np.round(cos, 6)})
        return out.sort_values(["cos", "va", "vb"],
                               ascending=[False, True, True]).head(20)

    cand = relational.ds_to_table(
        emb.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket").map_groups(pairs, batch_format="pandas")
    ).to_pandas()
    top = cand.sort_values(["cos", "va", "vb"],
                           ascending=[False, True, True]) \
        .head(20).reset_index(drop=True)
    return top.astype({"va": np.int64, "vb": np.int64,
                       "bucket": np.int64})


def _sql_lsh_pairs() -> str:
    """Generated twin sharing ``_LSH_PLANES`` verbatim: quantized
    column CTE, 8 integer sign sums → bucket, 64-term integer dot."""
    qcols = ", ".join(
        f"CAST(ROUND(CAST(embedding[{i + 1}] AS DOUBLE) * 1000000)"
        f" AS BIGINT) AS q{i}" for i in range(64))
    bucket = " + ".join(
        "(CASE WHEN "
        + " + ".join(f"q{i} * {int(_LSH_PLANES[i, b])}"
                     for i in range(64))
        + f" > 0 THEN {1 << b} ELSE 0 END)" for b in range(8))
    n2 = " + ".join(f"q{i} * q{i}" for i in range(64))
    dot = " + ".join(f"a.q{i} * b.q{i}" for i in range(64))
    return f"""
WITH q AS (SELECT vec_id, {qcols} FROM embeddings),
t AS (SELECT *, {bucket} AS bucket, {n2} AS n2 FROM q),
p AS (SELECT a.vec_id AS va, b.vec_id AS vb, a.bucket,
             ROUND(CAST({dot} AS DOUBLE)
                   / SQRT(CAST(a.n2 AS DOUBLE)
                          * CAST(b.n2 AS DOUBLE)), 6) AS cos
      FROM t a JOIN t b ON a.bucket = b.bucket
                        AND a.vec_id < b.vec_id)
SELECT va, vb, CAST(bucket AS BIGINT) AS bucket, cos FROM p
ORDER BY cos DESC, va, vb LIMIT 20
"""


def q_textrank_keywords(sf_dir: str):
    """TextRank keyword extraction over the corpus word
    co-occurrence graph (Mihalcea & Tarau) — PageRank on words
    instead of pages: an undirected edge joins two distinct words
    co-occurring within a 2-token window anywhere in the corpus, and
    3 damped power-iteration rounds (the registry's shared
    `graph_ops.pagerank` kernel, per-round 9-dp rounding pinning the
    float trajectory) score every word; the top 20 by (rank, word)
    are the corpus keywords.  Tokenization is the top_words
    space-split convention, mirrored by the twin's
    generate_subscripts positions."""
    from ray.data.aggregate import Count
    from ...stages import graph_ops
    docs = _read(sf_dir, "documents", ["text"])

    def pairs(t: pa.Table) -> pa.Table:
        toks = t["text"].to_pandas().str.split(" ")
        aa, bb = [], []
        for lst in toks:
            arr = np.asarray(lst, dtype=object)
            for d in (1, 2):
                if len(arr) > d:
                    x, y = arr[:-d], arr[d:]
                    m = x != y
                    lo = np.where(x < y, x, y)[m]
                    hi = np.where(x < y, y, x)[m]
                    aa.append(lo)
                    bb.append(hi)
        if not aa:
            return pa.table({"wa": pa.array([], type=pa.string()),
                             "wb": pa.array([], type=pa.string())})
        g = pd.DataFrame({"wa": np.concatenate(aa),
                          "wb": np.concatenate(bb)}).drop_duplicates()
        return pa.Table.from_pandas(g, preserve_index=False)

    # vocab-bounded distinct pair table → dense integer word ids for
    # the kernel (its broadcast leg indexes int64 node arrays; the
    # rank values are label-invariant, so the internal ids never
    # affect the output words/ranks)
    und = relational.ds_to_table(
        docs.map_batches(pairs, batch_format="pyarrow")
        .groupby(["wa", "wb"]).aggregate(Count(alias_name="_n"))
    ).to_pandas()
    vocab = sorted(set(und["wa"]) | set(und["wb"]))
    wid = {w: i for i, w in enumerate(vocab)}
    a = und["wa"].map(wid).to_numpy(np.int64)
    b = und["wb"].map(wid).to_numpy(np.int64)
    edges = rd.from_arrow(pa.table({
        "src": pa.array(np.concatenate([a, b])),
        "dst": pa.array(np.concatenate([b, a]))}))
    nodes = rd.from_arrow(pa.table({
        "v": pa.array(np.arange(len(vocab), dtype=np.int64))}))
    pr = graph_ops.pagerank(edges, nodes, iters=3, damping=0.85,
                            round_dp=9)
    top = relational.ds_to_table(pr).to_pandas()
    top["word"] = top["v"].map(dict(enumerate(vocab)))
    top = top.sort_values(["pagerank", "word"],
                          ascending=[False, True]).head(20) \
        .reset_index(drop=True)
    return pd.DataFrame({"word": top["word"],
                         "pagerank": top["pagerank"]})


SQL_TEXTRANK = """
WITH tok AS (SELECT doc_id,
                    unnest(string_split(text, ' ')) AS w,
                    generate_subscripts(string_split(text, ' '), 1)
                      AS i
             FROM documents),
pr0 AS (SELECT a.w AS x, b.w AS y
        FROM tok a JOIN tok b
          ON b.doc_id = a.doc_id
         AND (b.i = a.i + 1 OR b.i = a.i + 2)
        WHERE a.w <> b.w),
und AS (SELECT DISTINCT LEAST(x, y) AS wa, GREATEST(x, y) AS wb
        FROM pr0),
edges AS (SELECT wa AS src, wb AS dst FROM und
          UNION ALL SELECT wb, wa FROM und),
nodes AS (SELECT DISTINCT src AS v FROM edges),
nn AS (SELECT COUNT(*) AS n FROM nodes),
deg AS (SELECT src, COUNT(*) AS outdeg FROM edges GROUP BY src),
r0 AS (SELECT v, ROUND(1.0 / nn.n, 9) AS r FROM nodes, nn),
c1 AS (SELECT e.dst AS v, SUM(r0.r / deg.outdeg) AS c
       FROM edges e JOIN deg USING (src) JOIN r0 ON r0.v = e.src
       GROUP BY e.dst),
r1 AS (SELECT nodes.v,
              ROUND((1 - 0.85) / nn.n + 0.85 * COALESCE(c1.c, 0), 9)
                AS r
       FROM nodes LEFT JOIN c1 USING (v), nn),
c2 AS (SELECT e.dst AS v, SUM(r1.r / deg.outdeg) AS c
       FROM edges e JOIN deg USING (src) JOIN r1 ON r1.v = e.src
       GROUP BY e.dst),
r2 AS (SELECT nodes.v,
              ROUND((1 - 0.85) / nn.n + 0.85 * COALESCE(c2.c, 0), 9)
                AS r
       FROM nodes LEFT JOIN c2 USING (v), nn),
c3 AS (SELECT e.dst AS v, SUM(r2.r / deg.outdeg) AS c
       FROM edges e JOIN deg USING (src) JOIN r2 ON r2.v = e.src
       GROUP BY e.dst),
r3 AS (SELECT nodes.v,
              ROUND((1 - 0.85) / nn.n + 0.85 * COALESCE(c3.c, 0), 9)
                AS r
       FROM nodes LEFT JOIN c3 USING (v), nn)
SELECT v AS word, r AS pagerank
FROM r3 ORDER BY pagerank DESC, word LIMIT 20
"""


def q_fairness_audit_langid(sf_dir: str):
    """Group-fairness audit of the LangId classifier across sources —
    the responsible-AI report (demographic parity + equal
    opportunity) every production classifier owes its groups: per
    source, the selection rate P(pred='en') and the true-positive
    rate P(pred='en' | lang='en'), each with its gap to the overall
    rate.  All counts are exact from one (source × lang × pred)
    bounded reduce over the SAME actor-pool classifier the langid
    family benches; rates and gaps are mirrored divisions (NULL TPR
    where a source has no true-en docs, like SQL)."""
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["source", "lang", "text"])
    pred = docs.map_batches(text.LangId, batch_format="pandas",
                            concurrency=2)

    def partial(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({
            "source": t["source"].to_numpy(zero_copy_only=False),
            "n": 1,
            "sel": (t["lang_pred"].to_numpy(zero_copy_only=False)
                    == "en").astype(np.int64),
            "pos": (t["lang"].to_numpy(zero_copy_only=False)
                    == "en").astype(np.int64),
            "tp": ((t["lang_pred"].to_numpy(zero_copy_only=False)
                    == "en")
                   & (t["lang"].to_numpy(zero_copy_only=False)
                      == "en")).astype(np.int64)}) \
            .groupby("source", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        pred.map_batches(partial, batch_format="pyarrow")
        .groupby("source").aggregate(
            Sum("n", alias_name="n"), Sum("sel", alias_name="sel"),
            Sum("pos", alias_name="pos"), Sum("tp", alias_name="tp"))
    ).to_pandas().sort_values("source").reset_index(drop=True)
    N = int(agg["n"].sum())
    SEL = int(agg["sel"].sum())
    POS = int(agg["pos"].sum())
    TP = int(agg["tp"].sum())
    sel_all = float(SEL) / float(N)
    tpr_all = float(TP) / float(POS)
    rows = []
    for r in agg.itertuples(index=False):
        n, sel = int(r.n), int(r.sel)
        pos, tp = int(r.pos), int(r.tp)
        sr = float(sel) / float(n)
        tpr = None if pos == 0 else float(tp) / float(pos)
        rows.append({
            "source": r.source, "n_docs": n,
            "selection_rate": float(np.round(sr, 6)),
            "dp_gap": float(np.round(sr - sel_all, 6)),
            "tpr_en": None if tpr is None else
            float(np.round(tpr, 6)),
            "eo_gap": None if tpr is None else
            float(np.round(tpr - tpr_all, 6))})
    return pd.DataFrame(rows).astype({"n_docs": np.int64})


def _sql_fairness() -> str:
    return f"""
WITH {_langid_pred_sql_body().lstrip().replace(
        'SELECT lang,', 'SELECT source, lang,', 2)},
a AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(CASE WHEN lang_pred = 'en' THEN 1 ELSE 0 END)
                  AS BIGINT) AS sel,
             CAST(SUM(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)
                  AS BIGINT) AS pos,
             CAST(SUM(CASE WHEN lang_pred = 'en' AND lang = 'en'
                      THEN 1 ELSE 0 END) AS BIGINT) AS tp
      FROM pred GROUP BY 1),
t AS (SELECT SUM(n) AS nn, SUM(sel) AS ss, SUM(pos) AS pp,
             SUM(tp) AS tt
      FROM a)
SELECT a.source, a.n AS n_docs,
       ROUND(CAST(a.sel AS DOUBLE) / CAST(a.n AS DOUBLE), 6)
         AS selection_rate,
       ROUND(CAST(a.sel AS DOUBLE) / CAST(a.n AS DOUBLE)
             - CAST(t.ss AS DOUBLE) / CAST(t.nn AS DOUBLE), 6)
         AS dp_gap,
       CASE WHEN a.pos = 0 THEN NULL
            ELSE ROUND(CAST(a.tp AS DOUBLE)
                       / CAST(a.pos AS DOUBLE), 6) END AS tpr_en,
       CASE WHEN a.pos = 0 THEN NULL
            ELSE ROUND(CAST(a.tp AS DOUBLE) / CAST(a.pos AS DOUBLE)
                       - CAST(t.tt AS DOUBLE)
                         / CAST(t.pp AS DOUBLE), 6) END AS eo_gap
FROM a, t ORDER BY a.source
"""


def q_structural_equivalence_classes(sf_dir: str):
    """Structural-equivalence graph summarization over the formula
    link graph — the supernode compression step (nodes with
    identical out-neighbor multisets collapse): each node's
    fingerprint is (out-degree, Σ h(neighbor) mod 2⁶⁴) with the
    Knuth multiplicative hash, a multiset-invariant key both sides
    compute identically (classes are DEFINED by this fingerprint —
    the deterministic-collision contract of the sketch family).
    One (node → fingerprint) reduce, then a class-size histogram:
    n_classes/n_nodes is the achievable supernode compression.
    Output is the class-size distribution (size → count), bounded
    by the size domain."""
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()

    def fp(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        acc = np.zeros(len(d), dtype=np.uint64)
        for k in (1, 2, 3):
            nbr = ((d * 7919 + k * 104729) % n).astype(np.uint64)
            acc += nbr * np.uint64(2654435761)
        g = pd.DataFrame({"fp": pd.array(acc, dtype="uint64"),
                          "c": 1})
        g = g.groupby("fp", sort=False).sum().reset_index()
        g["fp"] = g["fp"].astype(str)
        return pa.Table.from_pandas(g, preserve_index=False)

    cls = relational.ds_to_table(
        docs.map_batches(fp, batch_format="pyarrow")
        .groupby("fp").aggregate(Sum("c", alias_name="sz"))
    ).to_pandas()
    hist = cls.groupby("sz").size().reset_index(name="n_classes")
    hist = hist.sort_values("sz").reset_index(drop=True)
    return pd.DataFrame({
        "class_size": hist["sz"].astype(np.int64),
        "n_classes": hist["n_classes"].astype(np.int64)})


SQL_STRUCT_EQUIV = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
f AS (SELECT d.doc_id,
             (((d.doc_id * 7919 + 1 * 104729) % nn.n)
              * CAST(2654435761 AS HUGEINT)
              + ((d.doc_id * 7919 + 2 * 104729) % nn.n)
                * CAST(2654435761 AS HUGEINT)
              + ((d.doc_id * 7919 + 3 * 104729) % nn.n)
                * CAST(2654435761 AS HUGEINT))
             % 18446744073709551616 AS fp
      FROM documents d, nn),
cls AS (SELECT fp, CAST(COUNT(*) AS BIGINT) AS sz
        FROM f GROUP BY 1)
SELECT sz AS class_size, CAST(COUNT(*) AS BIGINT) AS n_classes
FROM cls GROUP BY 1 ORDER BY 1
"""


_ATTACK_KS = (0, 5, 10, 20)


def q_attack_robustness_links(sf_dir: str):
    """Targeted-attack robustness of the formula link graph — the
    network-resilience curve (Albert-Jeong-Barabási): remove the
    top-k highest-degree hubs (degree ties to the smaller id) and
    measure the giant connected component's share of the survivors,
    for k ∈ {0, 5, 10, 20}.  Degrees fold in one reduce; components
    resolve by exact min-label union-find on the node-bounded edge
    set; the twin replays each scenario with a recursive min-label
    flood.  Largest-share is the only mirrored double."""
    from ray.data.aggregate import Sum
    from ...stages.graph_ops import _normalize_undirected
    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()

    def edges(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        src = np.repeat(d, 3)
        k = np.tile(np.array([1, 2, 3], dtype=np.int64), len(d))
        dst = (src * src * 31 + k * 104729) % n
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    und = relational.ds_to_table(_normalize_undirected(
        docs.map_batches(edges, batch_format="pyarrow"),
        "src", "dst")).to_pandas()
    ea = und["ea"].to_numpy(np.int64)
    eb = und["eb"].to_numpy(np.int64)
    deg = np.zeros(n, dtype=np.int64)
    np.add.at(deg, ea, 1)
    np.add.at(deg, eb, 1)
    order = np.lexsort((np.arange(n), -deg))
    rows = []
    for kk in _ATTACK_KS:
        removed = set(order[:kk].tolist())
        alive = [v for v in range(n) if v not in removed]
        parent = {v: v for v in alive}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for a_, b_ in zip(ea, eb):
            if a_ in removed or b_ in removed:
                continue
            ra, rb = find(int(a_)), find(int(b_))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        sizes: dict = {}
        for v in alive:
            r = find(v)
            sizes[r] = sizes.get(r, 0) + 1
        big = max(sizes.values()) if sizes else 0
        rows.append({
            "k_removed": kk, "n_alive": len(alive),
            "giant_size": big,
            "giant_share": float(np.round(
                float(big) / float(len(alive)), 6))})
    return pd.DataFrame(rows).astype({
        "k_removed": np.int64, "n_alive": np.int64,
        "giant_size": np.int64})


def _sql_attack_robustness() -> str:
    ks = ", ".join(f"({k})" for k in _ATTACK_KS)
    return f"""
WITH RECURSIVE
nn AS (SELECT COUNT(*) AS n FROM documents),
e0 AS (SELECT d.doc_id AS src,
              (d.doc_id * d.doc_id * 31 + k.k * 104729) % nn.n
                AS dst
       FROM documents d, (SELECT unnest([1, 2, 3]) AS k) k, nn),
e AS (SELECT DISTINCT LEAST(src, dst) AS ea,
             GREATEST(src, dst) AS eb
      FROM e0 WHERE src <> dst),
dg AS (SELECT d.doc_id AS v, COALESCE(x.c, 0) AS deg
       FROM documents d LEFT JOIN
         (SELECT v, CAST(COUNT(*) AS BIGINT) AS c
          FROM (SELECT ea AS v FROM e
                UNION ALL SELECT eb FROM e)
          GROUP BY 1) x ON x.v = d.doc_id),
rk AS (SELECT v, ROW_NUMBER() OVER (ORDER BY deg DESC, v) AS r
       FROM dg),
ks AS (SELECT * FROM (VALUES {ks}) t(kk)),
alive AS (SELECT ks.kk, rk.v FROM ks JOIN rk ON rk.r > ks.kk),
ae0 AS (SELECT a.kk, e.ea AS u, e.eb AS v
        FROM e JOIN alive a ON a.v = e.ea
        JOIN alive b ON b.kk = a.kk AND b.v = e.eb),
ae AS (SELECT kk, u, v FROM ae0
       UNION ALL SELECT kk, v, u FROM ae0),
reach AS (SELECT kk, v AS cell, v AS lab FROM alive
          UNION
          SELECT r.kk, ae.v AS cell, r.lab
          FROM reach r JOIN ae ON ae.kk = r.kk AND ae.u = r.cell),
comp AS (SELECT kk, cell, MIN(lab) AS root
         FROM reach GROUP BY 1, 2),
cs AS (SELECT kk, root, CAST(COUNT(*) AS BIGINT) AS sz
       FROM comp GROUP BY 1, 2),
agg AS (SELECT kk, CAST(SUM(sz) AS BIGINT) AS na,
               CAST(MAX(sz) AS BIGINT) AS big
        FROM cs GROUP BY 1)
SELECT kk AS k_removed, na AS n_alive, big AS giant_size,
       ROUND(CAST(big AS DOUBLE) / CAST(na AS DOUBLE), 6)
         AS giant_share
FROM agg ORDER BY k_removed
"""


def q_embedding_centroid_drift(sf_dir: str):
    """Per-label embedding centroid drift between the two vec_id-
    parity halves — the embedding-pipeline monitoring number (did a
    re-embed or upstream change move the classes?): vectors quantize
    to integer milli-units ONCE (the registry's floor(x·1000+0.5)
    convention), per-(label, half) component sums fold exactly, and
    each label's squared centroid distance is Σ_d (c₁·s₀d − c₀·s₁d)²
    — an exact integer over the single denominator (c₀·c₁)², one
    mirrored √ per label.  HUGEINT twin over unnested components."""
    from ray.data.aggregate import Sum
    emb = _read(sf_dir, "embeddings",
                ["vec_id", "embedding", "label"])

    def partial(t: pa.Table) -> pa.Table:
        vid = t["vec_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        lab = t["label"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        mat = np.stack([np.asarray(v, dtype=np.float64)
                        for v in t["embedding"].to_pylist()])
        qm = np.floor(mat * 1000 + 0.5).astype(np.int64)
        half = vid % 2
        df = pd.DataFrame({"lab": lab, "half": half, "c": 1})
        for d in range(qm.shape[1]):
            df[f"s{d}"] = qm[:, d]
        g = df.groupby(["lab", "half"], sort=False).sum() \
            .reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    first = relational.ds_to_table(
        emb.limit(1).map_batches(
            lambda t: pa.table({"d": pa.array(
                [len(t["embedding"].to_pylist()[0])])}),
            batch_format="pyarrow"))
    dim = int(first["d"].to_numpy(zero_copy_only=False)[0])
    aggs = [Sum("c", alias_name="c")] + [
        Sum(f"s{d}", alias_name=f"s{d}") for d in range(dim)]
    agg = relational.ds_to_table(
        emb.map_batches(partial, batch_format="pyarrow")
        .groupby(["lab", "half"]).aggregate(*aggs)
    ).to_pandas()
    rows = []
    for lab, g in agg.groupby("lab"):
        g = g.set_index("half")
        if 0 not in g.index or 1 not in g.index:
            continue
        c0, c1 = int(g.loc[0, "c"]), int(g.loc[1, "c"])
        num = 0
        for d in range(dim):
            s0 = int(g.loc[0, f"s{d}"])
            s1 = int(g.loc[1, f"s{d}"])
            t_ = c1 * s0 - c0 * s1
            num += t_ * t_
        drift = math.sqrt(float(num)) / float(c0 * c1) / 1000.0
        rows.append({"label": int(lab), "n_half0": c0,
                     "n_half1": c1, "drift_num": num,
                     "centroid_drift": float(np.round(drift, 6))})
    return pd.DataFrame(rows).sort_values("label") \
        .reset_index(drop=True).astype({
            "label": np.int64, "n_half0": np.int64,
            "n_half1": np.int64, "drift_num": np.int64})


SQL_CENTROID_DRIFT = """
WITH u AS (SELECT vec_id % 2 AS half, label,
                  generate_subscripts(embedding, 1) AS d,
                  CAST(FLOOR(unnest(embedding) * 1000 + 0.5)
                       AS HUGEINT) AS q
           FROM embeddings),
s AS (SELECT label, half, d, SUM(q) AS s,
             CAST(COUNT(*) AS BIGINT) AS c
      FROM u GROUP BY 1, 2, 3),
cnt AS (SELECT label, half, MAX(c) AS c FROM s GROUP BY 1, 2),
p AS (SELECT a.label, a.d, a.s AS s0, b.s AS s1,
             ca.c AS c0, cb.c AS c1
      FROM s a JOIN s b ON b.label = a.label AND b.d = a.d
                        AND a.half = 0 AND b.half = 1
      JOIN cnt ca ON ca.label = a.label AND ca.half = 0
      JOIN cnt cb ON cb.label = a.label AND cb.half = 1),
n AS (SELECT label, MAX(c0) AS c0, MAX(c1) AS c1,
             SUM((c1 * s0 - c0 * s1) * (c1 * s0 - c0 * s1)) AS num
      FROM p GROUP BY 1)
SELECT label, CAST(c0 AS BIGINT) AS n_half0,
       CAST(c1 AS BIGINT) AS n_half1,
       CAST(num AS BIGINT) AS drift_num,
       ROUND(SQRT(CAST(num AS DOUBLE))
             / CAST(c0 * c1 AS DOUBLE) / 1000.0, 6)
         AS centroid_drift
FROM n ORDER BY label
"""


_FANN_K = 10
_FANN_SHORTLIST = 50


def q_filtered_ann_audit(sf_dir: str):
    """Filtered-ANN strategy audit — the pre- vs post-filtering
    question every vector store faces: for the label = 1 filter and
    the vec_id 0 query, compare the TRUE filtered top-10 (exact
    integer dot products on milli-quantized vectors, vec_id ties)
    with post-filtering a global top-50 shortlist; the recall of the
    shortcut is the number a filtered-search planner thresholds on.
    All ranks are exact integer comparisons; recall is one mirrored
    division."""
    emb = relational.ds_to_table(
        _read(sf_dir, "embeddings",
              ["vec_id", "embedding", "label"])).to_pandas()
    vid = emb["vec_id"].to_numpy(np.int64)
    lab = emb["label"].to_numpy(np.int64)
    mat = np.stack([np.asarray(v, dtype=np.float64)
                    for v in emb["embedding"]])
    qm = np.floor(mat * 1000 + 0.5).astype(np.int64)
    qvec = qm[vid == 0][0]
    dots = qm @ qvec                          # exact integer dots
    order = np.lexsort((vid, -dots))
    order = order[vid[order] != 0]            # exclude the query
    filt = order[lab[order] == 1]
    true_top = set(vid[filt[:_FANN_K]].tolist())
    short = order[:_FANN_SHORTLIST]
    post = [v for v in short if lab[v] == 1][:_FANN_K]
    post_top = set(vid[post].tolist())
    hits = len(true_top & post_top)
    return pd.DataFrame([{
        "k": _FANN_K, "shortlist": _FANN_SHORTLIST,
        "n_filtered": int((lab == 1).sum()
                          - int(lab[vid == 0][0] == 1)),
        "n_hits": hits,
        "recall_postfilter": float(np.round(
            float(hits) / float(_FANN_K), 6))}]).astype({
            "k": np.int64, "shortlist": np.int64,
            "n_filtered": np.int64, "n_hits": np.int64})


def _sql_filtered_ann() -> str:
    return f"""
WITH q AS (SELECT generate_subscripts(embedding, 1) AS d,
                  CAST(FLOOR(unnest(embedding) * 1000 + 0.5)
                       AS HUGEINT) AS v
           FROM embeddings WHERE vec_id = 0),
u AS (SELECT vec_id, label,
             generate_subscripts(embedding, 1) AS d,
             CAST(FLOOR(unnest(embedding) * 1000 + 0.5) AS HUGEINT)
               AS v
      FROM embeddings WHERE vec_id <> 0),
dots AS (SELECT u.vec_id, MAX(u.label) AS label,
                SUM(u.v * q.v) AS dot
         FROM u JOIN q ON q.d = u.d GROUP BY 1),
rk AS (SELECT vec_id, label, dot,
              ROW_NUMBER() OVER (ORDER BY dot DESC, vec_id) AS rn
       FROM dots),
true_top AS (SELECT vec_id FROM (
               SELECT vec_id, ROW_NUMBER() OVER
                 (ORDER BY dot DESC, vec_id) AS frn
               FROM rk WHERE label = 1) WHERE frn <= {_FANN_K}),
post AS (SELECT vec_id FROM (
           SELECT vec_id, ROW_NUMBER() OVER
             (ORDER BY rn) AS prn
           FROM rk WHERE rn <= {_FANN_SHORTLIST} AND label = 1)
         WHERE prn <= {_FANN_K}),
h AS (SELECT CAST(COUNT(*) AS BIGINT) AS hits
      FROM true_top JOIN post USING (vec_id))
SELECT CAST({_FANN_K} AS BIGINT) AS k,
       CAST({_FANN_SHORTLIST} AS BIGINT) AS shortlist,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM rk WHERE label = 1)
         AS n_filtered,
       h.hits AS n_hits,
       ROUND(CAST(h.hits AS DOUBLE) / {float(_FANN_K)}, 6)
         AS recall_postfilter
FROM h
"""


def q_bray_curtis_sources(sf_dir: str):
    """Bray–Curtis dissimilarity between every pair of source word
    distributions — community ecology's abundance-aware distance
    (unlike Jaccard it weights counts, unlike JSD it needs NO logs):
    BC = 1 − 2·Σ_w min(c_aw, c_bw) / (N_a + N_b), computed entirely
    on EXACT integer counts from one word×source reduce — the
    min-sum and totals are integers, one mirrored division per pair.
    The top-5 most-similar pairs (lowest BC, pair ties) are
    reported — the copy-suspect shortlist."""
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["source", "text"])

    def counts(t: pa.Table) -> pa.Table:
        toks = t["text"].to_pandas().str.split(" ")
        lens = toks.str.len().to_numpy()
        g = pd.DataFrame({
            "source": np.repeat(
                t["source"].to_numpy(zero_copy_only=False), lens),
            "w": np.concatenate(toks.to_numpy()), "c": 1}) \
            .groupby(["source", "w"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    wc = relational.ds_to_table(
        docs.map_batches(counts, batch_format="pyarrow")
        .groupby(["source", "w"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    piv = wc.pivot_table(index="w", columns="source", values="c",
                         fill_value=0, aggfunc="sum")
    srcs = sorted(piv.columns)
    tot = {s: int(piv[s].sum()) for s in srcs}
    rows = []
    for i, a in enumerate(srcs):
        for b in srcs[i + 1:]:
            msum = int(np.minimum(piv[a].to_numpy(np.int64),
                                  piv[b].to_numpy(np.int64)).sum())
            bc = 1.0 - 2.0 * float(msum) / float(tot[a] + tot[b])
            rows.append({"source_a": a, "source_b": b,
                         "min_sum": msum,
                         "bray_curtis": float(np.round(bc, 6))})
    out = pd.DataFrame(rows).sort_values(
        ["bray_curtis", "source_a", "source_b"]).head(5) \
        .reset_index(drop=True)
    return out.astype({"min_sum": np.int64})


SQL_BRAY_CURTIS = """
WITH wc AS (SELECT source, w, CAST(COUNT(*) AS BIGINT) AS c
            FROM (SELECT source,
                         unnest(string_split(text, ' ')) AS w
                  FROM documents)
            GROUP BY 1, 2),
tot AS (SELECT source, SUM(c) AS t FROM wc GROUP BY 1),
pairs AS (SELECT a.source AS sa, b.source AS sb,
                 SUM(LEAST(a.c, b.c)) AS msum
          FROM wc a JOIN wc b
            ON b.w = a.w AND a.source < b.source
          GROUP BY 1, 2),
full_p AS (SELECT ta.source AS sa, tb.source AS sb,
                  COALESCE(p.msum, 0) AS msum,
                  ta.t + tb.t AS denom
           FROM tot ta JOIN tot tb ON ta.source < tb.source
           LEFT JOIN pairs p ON p.sa = ta.source
                            AND p.sb = tb.source)
SELECT sa AS source_a, sb AS source_b,
       CAST(msum AS BIGINT) AS min_sum,
       ROUND(1.0 - 2.0 * CAST(msum AS DOUBLE)
             / CAST(denom AS DOUBLE), 6) AS bray_curtis
FROM full_p
ORDER BY bray_curtis, source_a, source_b LIMIT 5
"""


def q_good_toulmin_doubling(sf_dir: str):
    """Good–Toulmin extrapolation of NEW vocabulary on corpus
    doubling — Efron–Thisted's famous "how many words did
    Shakespeare know" estimator at t = 1: E[new types] =
    f₁ − f₂ + f₃ − … — an exact INTEGER alternating sum of the
    frequency-of-frequencies (no smoothing needed at t ≤ 1), next to
    the observed vocabulary and singleton share.  One word reduce →
    one frequency-of-frequency reduce; everything integer but the
    one mirrored share."""
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["text"])

    def counts(t: pa.Table) -> pa.Table:
        toks = t["text"].to_pandas().str.split(" ")
        g = pd.DataFrame({"w": np.concatenate(toks.to_numpy()),
                          "c": 1}) \
            .groupby("w", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    wc = relational.ds_to_table(
        docs.map_batches(counts, batch_format="pyarrow")
        .groupby("w").aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    fof = wc.groupby("c").size()
    vocab = int(len(wc))
    est = sum((1 if int(r) % 2 == 1 else -1) * int(v)
              for r, v in fof.items())
    f1 = int(fof.get(1, 0))
    return pd.DataFrame([{
        "vocab_observed": vocab, "f1_singletons": f1,
        "gt_new_types_on_doubling": est,
        "singleton_share": float(np.round(
            float(f1) / float(vocab), 6))}]).astype({
            "vocab_observed": np.int64, "f1_singletons": np.int64,
            "gt_new_types_on_doubling": np.int64})


SQL_GOOD_TOULMIN = """
WITH wc AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS c
            FROM (SELECT unnest(string_split(text, ' ')) AS w
                  FROM documents)
            GROUP BY 1),
fof AS (SELECT c AS r, CAST(COUNT(*) AS BIGINT) AS f
        FROM wc GROUP BY 1)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM wc) AS vocab_observed,
       CAST(COALESCE((SELECT f FROM fof WHERE r = 1), 0) AS BIGINT)
         AS f1_singletons,
       CAST(SUM(CASE WHEN r % 2 = 1 THEN f ELSE -f END) AS BIGINT)
         AS gt_new_types_on_doubling,
       ROUND(CAST(COALESCE((SELECT f FROM fof WHERE r = 1), 0)
                  AS DOUBLE)
             / (SELECT CAST(COUNT(*) AS DOUBLE) FROM wc), 6)
         AS singleton_share
FROM fof
"""


def q_bowtie_decomposition_links(sf_dir: str):
    """Broder bow-tie decomposition of the directed formula link
    graph — THE structural census of a web crawl (core / IN / OUT /
    the rest): the largest strongly connected component is the core,
    IN is everything reaching it, OUT everything it reaches, and the
    remainder is tendrils+disconnected.  SCC by Tarjan-free double
    flood (forward ∩ backward reachability from the max-degree
    pivot, the registry's pivot_scc convention), IN/OUT by one more
    flood each — all exact set computations on the node-bounded
    edge list; the twin replays the three floods with recursive
    CTEs.  Sizes are exact ints; shares mirrored."""
    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()

    def edges(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        src = np.repeat(d, 3)
        k = np.tile(np.array([1, 2, 3], dtype=np.int64), len(d))
        dst = (src * 7919 + k * 104729) % n
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    et = relational.ds_to_table(
        docs.map_batches(edges, batch_format="pyarrow")).to_pandas()
    src = et["src"].to_numpy(np.int64)
    dst = et["dst"].to_numpy(np.int64)
    fwd: dict = {}
    bwd: dict = {}
    for a, b in zip(src, dst):
        fwd.setdefault(int(a), []).append(int(b))
        bwd.setdefault(int(b), []).append(int(a))

    def flood(start, adj):
        seen = set(start)
        stack = list(start)
        while stack:
            v = stack.pop()
            for w in adj.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    pivot = 0                      # deterministic pivot: node 0
    f = flood([pivot], fwd)
    b = flood([pivot], bwd)
    core = f & b
    inset = flood(list(core), bwd) - core
    outset = flood(list(core), fwd) - core
    other = n - len(core) - len(inset) - len(outset)
    rows = []
    for name, sz in (("core_scc", len(core)), ("in", len(inset)),
                     ("out", len(outset)), ("other", other)):
        rows.append({"component": name, "n_nodes": sz,
                     "share": float(np.round(
                         float(sz) / float(n), 6))})
    return pd.DataFrame(rows).astype({"n_nodes": np.int64})


SQL_BOWTIE = """
WITH RECURSIVE
nn AS (SELECT COUNT(*) AS n FROM documents),
e AS (SELECT d.doc_id AS src,
             (d.doc_id * 7919 + k.k * 104729) % nn.n AS dst
      FROM documents d, (SELECT unnest([1, 2, 3]) AS k) k, nn),
fwd AS (SELECT 0 AS v
        UNION
        SELECT e.dst FROM fwd JOIN e ON e.src = fwd.v),
bwd AS (SELECT 0 AS v
        UNION
        SELECT e.src FROM bwd JOIN e ON e.dst = bwd.v),
core AS (SELECT fwd.v FROM fwd JOIN bwd ON bwd.v = fwd.v),
inr AS (SELECT v FROM core
        UNION
        SELECT e.src FROM inr JOIN e ON e.dst = inr.v),
outr AS (SELECT v FROM core
         UNION
         SELECT e.dst FROM outr JOIN e ON e.src = outr.v),
sizes AS (SELECT (SELECT COUNT(*) FROM core) AS c,
                 (SELECT COUNT(*) FROM inr) - (SELECT COUNT(*)
                   FROM core) AS i,
                 (SELECT COUNT(*) FROM outr) - (SELECT COUNT(*)
                   FROM core) AS o,
                 nn.n
          FROM nn)
SELECT 'core_scc' AS component, CAST(c AS BIGINT) AS n_nodes,
       ROUND(CAST(c AS DOUBLE) / CAST(n AS DOUBLE), 6) AS share
FROM sizes
UNION ALL
SELECT 'in', CAST(i AS BIGINT),
       ROUND(CAST(i AS DOUBLE) / CAST(n AS DOUBLE), 6) FROM sizes
UNION ALL
SELECT 'out', CAST(o AS BIGINT),
       ROUND(CAST(o AS DOUBLE) / CAST(n AS DOUBLE), 6) FROM sizes
UNION ALL
SELECT 'other', CAST(n - c - i - o AS BIGINT),
       ROUND(CAST(n - c - i - o AS DOUBLE) / CAST(n AS DOUBLE), 6)
FROM sizes
ORDER BY component
"""


def q_dedup_savings_report(sf_dir: str):
    """Dedup savings forecast — the capacity number a training-data
    pipeline quotes before running the expensive dedup: exact-
    duplicate documents (identical text) beyond each group's first
    are pure savings, reported in documents AND whitespace tokens
    (the compute currency).  One content-keyed reduce carrying both
    counts; shares are the mirrored divisions."""
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["text"])

    def partial(t: pa.Table) -> pa.Table:
        txt = t["text"].to_pandas()
        toks = txt.str.split(" ").str.len().astype(np.int64)
        g = pd.DataFrame({"text": txt, "n": 1, "tok": toks}) \
            .groupby("text", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("text").aggregate(Sum("n", alias_name="n"),
                                   Sum("tok", alias_name="tok"))
    ).to_pandas()
    n_docs = int(agg["n"].sum())
    n_groups = len(agg)
    tok_total = int(agg["tok"].sum())
    # per group, tokens per copy = tok/n (identical texts): savings
    # tokens = tok - tok/n = tok*(n-1)/n — exact since tok = n*per
    dup_docs = n_docs - n_groups
    sav_tok = sum(int(r.tok) - int(r.tok) // int(r.n)
                  for r in agg.itertuples(index=False))
    return pd.DataFrame([{
        "n_docs": n_docs, "n_distinct_texts": n_groups,
        "dup_docs": dup_docs, "tokens_total": tok_total,
        "tokens_saved": sav_tok,
        "doc_savings_share": float(np.round(
            float(dup_docs) / float(n_docs), 6)),
        "token_savings_share": float(np.round(
            float(sav_tok) / float(tok_total), 6))}]).astype({
            "n_docs": np.int64, "n_distinct_texts": np.int64,
            "dup_docs": np.int64, "tokens_total": np.int64,
            "tokens_saved": np.int64})


SQL_DEDUP_SAVINGS = """
WITH g AS (SELECT text, CAST(COUNT(*) AS BIGINT) AS n,
                  CAST(SUM(len(string_split(text, ' ')))
                       AS BIGINT) AS tok
           FROM documents GROUP BY 1),
a AS (SELECT SUM(n) AS n_docs, CAST(COUNT(*) AS BIGINT)
        AS n_groups,
             SUM(tok) AS tok_total,
             SUM(tok - tok // n) AS sav
      FROM g)
SELECT CAST(n_docs AS BIGINT) AS n_docs,
       n_groups AS n_distinct_texts,
       CAST(n_docs - n_groups AS BIGINT) AS dup_docs,
       CAST(tok_total AS BIGINT) AS tokens_total,
       CAST(sav AS BIGINT) AS tokens_saved,
       ROUND(CAST(n_docs - n_groups AS DOUBLE)
             / CAST(n_docs AS DOUBLE), 6) AS doc_savings_share,
       ROUND(CAST(sav AS DOUBLE) / CAST(tok_total AS DOUBLE), 6)
         AS token_savings_share
FROM a
"""


def q_label_assortativity_links(sf_dir: str):
    """Newman categorical assortativity of the link graph by
    document language — do pages link within their language (the
    homophily number behind crawl frontier design)?  r = (tr e −
    Σ aᵢbᵢ)/(1 − Σ aᵢbᵢ) over the normalized mixing matrix; kept
    exact by clearing denominators: with integer mixing counts m_ij
    and E edges, r = (E·tr m − Σ rowᵢ·colᵢ) / (E² − Σ rowᵢ·colᵢ) —
    one mirrored division of exact integers.  Labels attach to both
    endpoints through the bounded langs² reduce."""
    from ray.data.aggregate import Sum
    docs = relational.ds_to_table(
        _read(sf_dir, "documents", ["doc_id", "lang"])).to_pandas()
    n = len(docs)
    lang = docs.sort_values("doc_id")["lang"].to_numpy()
    lref = ray.put(lang)
    ds = _read(sf_dir, "documents", ["doc_id"])

    def edges(batch: pa.Table) -> pa.Table:
        lg = relational.worker_cached(("label_assort", lref),
                                      lambda: ray.get(lref))
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        src = np.repeat(d, 3)
        k = np.tile(np.array([1, 2, 3], dtype=np.int64), len(d))
        dst = (src * 7919 + k * 104729) % n
        g = pd.DataFrame({"la": lg[src], "lb": lg[dst], "c": 1}) \
            .groupby(["la", "lb"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    mix = relational.ds_to_table(
        ds.map_batches(edges, batch_format="pyarrow")
        .groupby(["la", "lb"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    E = int(mix["c"].sum())
    tr = int(mix.loc[mix["la"] == mix["lb"], "c"].sum())
    row = mix.groupby("la")["c"].sum().to_dict()
    col = mix.groupby("lb")["c"].sum().to_dict()
    labs = sorted(set(row) | set(col))
    ab = sum(int(row.get(l, 0)) * int(col.get(l, 0)) for l in labs)
    r = float(E * tr - ab) / float(E * E - ab)
    return pd.DataFrame([{
        "n_edges": E, "trace": tr, "sum_ab": ab,
        "assortativity": float(np.round(r, 6))}]).astype({
            "n_edges": np.int64, "trace": np.int64,
            "sum_ab": np.int64})


SQL_LABEL_ASSORT = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
e AS (SELECT d.doc_id AS src,
             (d.doc_id * 7919 + k.k * 104729) % nn.n AS dst
      FROM documents d, (SELECT unnest([1, 2, 3]) AS k) k, nn),
m AS (SELECT a.lang AS la, b.lang AS lb,
             CAST(COUNT(*) AS BIGINT) AS c
      FROM e JOIN documents a ON a.doc_id = e.src
      JOIN documents b ON b.doc_id = e.dst
      GROUP BY 1, 2),
t AS (SELECT SUM(c) AS ee,
             SUM(CASE WHEN la = lb THEN c ELSE 0 END) AS tr
      FROM m),
ab AS (SELECT SUM(r.rc * c.cc) AS ab
       FROM (SELECT la AS l, SUM(c) AS rc FROM m GROUP BY 1) r
       JOIN (SELECT lb AS l, SUM(c) AS cc FROM m GROUP BY 1) c
         USING (l))
SELECT CAST(t.ee AS BIGINT) AS n_edges,
       CAST(t.tr AS BIGINT) AS trace,
       CAST(ab.ab AS BIGINT) AS sum_ab,
       ROUND(CAST(t.ee * t.tr - ab.ab AS DOUBLE)
             / CAST(t.ee * t.ee - ab.ab AS DOUBLE), 6)
         AS assortativity
FROM t, ab
"""


def q_embedding_isotropy_audit(sf_dir: str):
    """Isotropy audit of the embedding space — the anisotropy
    pathology check (Ethayarajh): embeddings that all point the same
    way break cosine retrieval.  On milli-quantized integer vectors
    the mean pairwise dot is EXACT: Σ_{i≠j}⟨qᵢ,qⱼ⟩ = ‖Σq‖² − Σ‖q‖²
    (integers end to end), reported raw and after mean-centering
    (where the identity gives −Σ‖q̃‖²·… the centered cross sum =
    −n·Σ‖q̃‖²/(n−1) scaled exactly via n²-clearing).  HUGEINT twin
    over unnested components; two mirrored divisions."""
    from ray.data.aggregate import Sum
    emb = _read(sf_dir, "embeddings", ["embedding"])

    def partial(t: pa.Table) -> pa.Table:
        mat = np.stack([np.asarray(v, dtype=np.float64)
                        for v in t["embedding"].to_pylist()])
        qm = np.floor(mat * 1000 + 0.5).astype(np.int64)
        cols = {"_g": pa.array([0]),
                "n": pa.array([qm.shape[0]]),
                "nrm": pa.array([int((qm * qm).sum())])}
        for d in range(qm.shape[1]):
            cols[f"s{d}"] = pa.array([int(qm[:, d].sum())])
        return pa.table(cols)

    first = relational.ds_to_table(
        emb.limit(1).map_batches(
            lambda t: pa.table({"d": pa.array(
                [len(t["embedding"].to_pylist()[0])])}),
            batch_format="pyarrow"))
    dim = int(first["d"].to_numpy(zero_copy_only=False)[0])
    aggs = [Sum("n", alias_name="n"), Sum("nrm", alias_name="nrm")] \
        + [Sum(f"s{d}", alias_name=f"s{d}") for d in range(dim)]
    agg = relational.ds_to_table(
        emb.map_batches(partial, batch_format="pyarrow")
        .groupby("_g").aggregate(*aggs)
    ).to_pandas()
    n = int(agg["n"].iloc[0])
    nrm = int(agg["nrm"].iloc[0])
    ssq = sum(int(agg[f"s{d}"].iloc[0]) ** 2 for d in range(dim))
    cross = ssq - nrm                    # Σ_{i≠j} ⟨qi,qj⟩, exact
    mean_dot = float(cross) / (float(n) * float(n - 1))
    # centered vectors sum to zero, so the centered cross sum is
    # −Σ‖q̃‖²; with n-clearing Σ‖n·q−S‖² = n²·Σ‖q‖² − n·‖S‖²
    # = n·(n·nrm − ssq), all exact — mean centered pair dot is
    # −(n·nrm − ssq) / (n²·(n−1))
    cnorm = n * nrm - ssq                # ≥ 0 by Cauchy–Schwarz
    mean_dot_centered = -float(cnorm) / (float(n) * float(n)
                                         * float(n - 1))
    return pd.DataFrame([{
        "n_vectors": n, "cross_dot_sum": cross,
        "mean_pair_dot": float(np.round(mean_dot, 6)),
        "mean_pair_dot_centered": float(np.round(
            mean_dot_centered, 6))}]).astype({
            "n_vectors": np.int64, "cross_dot_sum": np.int64})


SQL_ISOTROPY = """
WITH u AS (SELECT vec_id, generate_subscripts(embedding, 1) AS d,
                  CAST(FLOOR(unnest(embedding) * 1000 + 0.5)
                       AS HUGEINT) AS q
           FROM embeddings),
n AS (SELECT CAST(COUNT(DISTINCT vec_id) AS HUGEINT) AS n FROM u),
s AS (SELECT d, SUM(q) AS s FROM u GROUP BY 1),
a AS (SELECT (SELECT SUM(s * s) FROM s) AS ssq,
             (SELECT SUM(q * q) FROM u) AS nrm,
             n.n
      FROM n)
SELECT CAST(n AS BIGINT) AS n_vectors,
       CAST(ssq - nrm AS BIGINT) AS cross_dot_sum,
       ROUND(CAST(ssq - nrm AS DOUBLE)
             / (CAST(n AS DOUBLE) * CAST(n - 1 AS DOUBLE)), 6)
         AS mean_pair_dot,
       ROUND(-CAST(n * nrm - ssq AS DOUBLE)
             / (CAST(n AS DOUBLE) * CAST(n AS DOUBLE)
                * CAST(n - 1 AS DOUBLE)), 6)
         AS mean_pair_dot_centered
FROM a
"""


_RING_VNODES = 8
_RING_SHARDS = 8


def q_hashring_balance_audit(sf_dir: str):
    """Consistent-hash-ring balance audit with virtual nodes — WHY
    every distributed store uses vnodes: documents hash onto a
    2⁶⁴ ring and belong to the next vnode clockwise; with 1 vnode
    per shard the arc lengths (and so the loads) are wildly uneven,
    with 8 they concentrate.  Ring positions are deterministic
    multiply hashes (seeded, shipped to the twin), assignment is an
    exact integer successor search, and the balance number is the
    exact max/min load ratio plus the n²-scaled integer load
    variance — comparing the two configurations side by side."""
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["doc_id"])
    rs = np.random.RandomState(5150)
    hi = rs.randint(0, 1 << 32,
                    size=_RING_SHARDS * _RING_VNODES) \
        .astype(np.uint64)
    lo = rs.randint(0, 1 << 32,
                    size=_RING_SHARDS * _RING_VNODES) \
        .astype(np.uint64)
    ring_pos = (hi << np.uint64(32)) | lo
    configs = {}
    full_owner = np.repeat(np.arange(_RING_SHARDS, dtype=np.int64),
                           _RING_VNODES)
    for name, step in (("v1", _RING_VNODES),
                       (f"v{_RING_VNODES}", 1)):
        # v1 keeps each shard's FIRST vnode (every VNODES-th ring
        # position) — the same subset the twin's VALUES list emits
        pos = ring_pos[::step]
        own = full_owner[::step]
        o = np.argsort(pos, kind="stable")
        configs[name] = (pos[o], own[o])
    cref = ray.put(configs)

    def assign(t: pa.Table) -> pa.Table:
        cfg = relational.worker_cached(("ring_cfg", cref),
                                       lambda: ray.get(cref))
        d = t["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64) + np.uint64(1)
        h = d * np.uint64(0x9E3779B97F4A7C15 | 1)
        outs = []
        for name, (spos, owner) in cfg.items():
            idx = np.searchsorted(spos, h, side="left")
            idx[idx == len(spos)] = 0          # wrap around
            g = pd.DataFrame({"cfg": name, "shard": owner[idx],
                              "c": 1}) \
                .groupby(["cfg", "shard"], sort=False).sum() \
                .reset_index()
            outs.append(g)
        return pa.Table.from_pandas(pd.concat(outs),
                                    preserve_index=False)

    agg = relational.ds_to_table(
        docs.map_batches(assign, batch_format="pyarrow")
        .groupby(["cfg", "shard"]).aggregate(
            Sum("c", alias_name="c"))
    ).to_pandas()
    rows = []
    for cfg, g in agg.groupby("cfg"):
        loads = np.zeros(_RING_SHARDS, dtype=np.int64)
        loads[g["shard"].to_numpy(np.int64)] = \
            g["c"].to_numpy(np.int64)
        N = int(loads.sum())
        var_num = int(_RING_SHARDS * int((loads.astype(object)
                                          ** 2).sum())
                      - N * N)
        rows.append({
            "config": cfg, "n_docs": N,
            "max_load": int(loads.max()),
            "min_load": int(loads.min()),
            "var_num": var_num,
            "imbalance": None if loads.min() == 0 else
            float(np.round(float(loads.max())
                           / float(loads.min()), 6))})
    return pd.DataFrame(rows).sort_values("config") \
        .reset_index(drop=True).astype({
            "n_docs": np.int64, "max_load": np.int64,
            "min_load": np.int64, "var_num": np.int64})


def _sql_hashring() -> str:
    rs = np.random.RandomState(5150)
    hi = rs.randint(0, 1 << 32,
                    size=_RING_SHARDS * _RING_VNODES) \
        .astype(np.uint64)
    lo = rs.randint(0, 1 << 32,
                    size=_RING_SHARDS * _RING_VNODES) \
        .astype(np.uint64)
    ring_pos = ((hi << np.uint64(32)) | lo)
    seed = 0x9E3779B97F4A7C15 | 1
    vals = []
    for j, p in enumerate(ring_pos):
        shard = j // _RING_VNODES
        first = j % _RING_VNODES == 0
        vals.append(f"('v{_RING_VNODES}', {int(p)}, {shard})")
        if first:
            vals.append(f"('v1', {int(p)}, {shard})")
    ring = ", ".join(vals)
    return f"""
WITH ring AS (SELECT * FROM (VALUES {ring}) r(cfg, pos, shard)),
h AS (SELECT ((CAST(doc_id AS HUGEINT) + 1) * {seed})
             % 18446744073709551616 AS h
      FROM documents),
a AS (SELECT h.h, ring.cfg,
             COALESCE(
               (SELECT r2.shard FROM ring r2
                WHERE r2.cfg = ring.cfg AND r2.pos >= h.h
                ORDER BY r2.pos LIMIT 1),
               (SELECT r3.shard FROM ring r3
                WHERE r3.cfg = ring.cfg
                ORDER BY r3.pos LIMIT 1)) AS shard
      FROM h CROSS JOIN (SELECT DISTINCT cfg FROM ring) ring),
l AS (SELECT cfg, shard, CAST(COUNT(*) AS BIGINT) AS c
      FROM a GROUP BY 1, 2),
f AS (SELECT cfg, SUM(c) AS n, MAX(c) AS mx,
             MIN(c) AS mn,
             CAST({_RING_SHARDS} AS HUGEINT) * SUM(CAST(c AS
               HUGEINT) * c) - SUM(c) * SUM(c) AS var_num,
             CAST(COUNT(*) AS BIGINT) AS n_shards
      FROM l GROUP BY 1)
SELECT cfg AS config, CAST(n AS BIGINT) AS n_docs,
       CAST(mx AS BIGINT) AS max_load,
       CAST(CASE WHEN n_shards < {_RING_SHARDS} THEN 0 ELSE mn END
            AS BIGINT) AS min_load,
       CAST(var_num AS BIGINT) AS var_num,
       CASE WHEN n_shards < {_RING_SHARDS} OR mn = 0 THEN NULL
            ELSE ROUND(CAST(mx AS DOUBLE) / CAST(mn AS DOUBLE), 6)
       END AS imbalance
FROM f ORDER BY config
"""


def q_average_precision_doc_score(sf_dir: str):
    """Average precision (area under the precision-recall curve) of
    the shared document scorer — the ranking metric that, unlike AUC,
    weights the TOP of the list, which is what a filtering pipeline
    actually consumes.  Total order (score DESC, doc_id ASC) pins
    ties.  Phase 1 is the bounded 6-dp score histogram (≤1e6 cells);
    its strictly-higher-score offsets broadcast once.  Phase 2 shuffles
    on score: each group sorts its own doc_ids, local cumulative
    positives + the broadcast offsets give every positive's GLOBAL
    rank and TP count, and the group emits ONE (Σ tp/k, Σ pos) partial
    — per-term doubles are identical on both sides, the final sum
    rounds at 6 dp.  No global sort, nothing row-scaled leaves the
    groups."""
    from ray.data.aggregate import Sum
    scored = _doc_logreg_scored(sf_dir).materialize()

    def hpart(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({
            "score": t["score"].to_numpy(zero_copy_only=False),
            "pn": 1,
            "pp": t["label"].to_numpy(zero_copy_only=False)}) \
            .groupby("score", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    hist = relational.ds_to_table(
        scored.map_batches(hpart, batch_format="pyarrow")
        .groupby("score").aggregate(Sum("pn", alias_name="n"),
                                    Sum("pp", alias_name="np"))
    ).to_pandas().sort_values("score", ascending=False) \
        .reset_index(drop=True)
    off_n = np.concatenate([[0], np.cumsum(hist["n"].to_numpy(np.int64))[:-1]])
    off_tp = np.concatenate([[0], np.cumsum(hist["np"].to_numpy(np.int64))[:-1]])
    offs = {float(s): (int(a), int(b)) for s, a, b in
            zip(hist["score"], off_n, off_tp)}
    n_pos = int(hist["np"].sum())
    oref = ray.put(offs)

    def group_part(df: pd.DataFrame) -> pd.DataFrame:
        omap = relational.worker_cached(("ap_offs", oref),
                                        lambda: ray.get(oref))
        df = df.sort_values("doc_id")
        on, otp = omap[float(df["score"].iloc[0])]
        lab = df["label"].to_numpy(np.int64)
        k = on + np.arange(1, len(df) + 1, dtype=np.int64)
        tp = otp + np.cumsum(lab)
        pos = lab == 1
        part = float(np.sum(tp[pos].astype(np.float64)
                            / k[pos].astype(np.float64)))
        return pd.DataFrame({"ap_part": [part]})

    parts = relational.ds_to_table(
        scored.groupby("score").map_groups(group_part,
                                           batch_format="pandas")
    ).to_pandas()
    ap = round(float(parts["ap_part"].sum()) / n_pos, 6)
    return pd.DataFrame({"n_pos": pd.array([n_pos], dtype=np.int64),
                         "ap": [ap]})


SQL_AVG_PRECISION = """
WITH f AS (
  SELECT doc_id, n_chars / 1000.0 AS x1,
         len(string_split(text, ' ')) / 100.0 AS x2,
         CASE WHEN n_chars > 297 THEN 1 ELSE 0 END AS label
  FROM documents),
s AS (SELECT doc_id,
             ROUND(1.0 / (1.0 + exp(-(0.25 + 0.8 * x1 - 0.5 * x2))), 6)
               AS score, label FROM f),
r AS (SELECT label,
             ROW_NUMBER() OVER (ORDER BY score DESC, doc_id) AS k,
             SUM(label) OVER (ORDER BY score DESC, doc_id
               ROWS UNBOUNDED PRECEDING) AS tp
      FROM s)
SELECT (SELECT CAST(SUM(label) AS BIGINT) FROM s) AS n_pos,
       ROUND(SUM(CASE WHEN label = 1
                      THEN CAST(tp AS DOUBLE) / k END)
             / (SELECT SUM(label) FROM s), 6) AS ap
FROM r
"""


def q_jsd_source_divergence(sf_dir: str):
    """Pairwise Jensen–Shannon divergence between the sources' unigram
    distributions — the symmetric, bounded (0..ln 2) corpus-drift
    metric data-mixture work standardizes on (cosine says 'how
    aligned', JSD says 'how much probability mass disagrees').  One
    (source, word) count reduce, per-source totals broadcast, then a
    WORD-bucket shuffle where each bucket pivots its own words ×
    sources slice and emits per-pair partial Σ ½(p·ln(p/m)+q·ln(q/m))
    terms (identical double expressions to the twin; exact-0 terms
    when p==q since ln(1)=0); a ≤pairs-sized combine finishes."""
    from ray.data.aggregate import Sum

    from ...stages.relational import stable_bucket

    docs = _read(sf_dir, "documents", ["source", "text"])

    def wc(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t["text"], pattern=" ")
        nw = pc.list_value_length(parts).to_numpy(zero_copy_only=False)
        src = np.repeat(t["source"].to_numpy(zero_copy_only=False), nw)
        g = pd.DataFrame({"source": src,
                          "w": pc.list_flatten(parts).to_numpy(
                              zero_copy_only=False), "n": 1}) \
            .groupby(["source", "w"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    counts = docs.map_batches(wc, batch_format="pyarrow") \
        .groupby(["source", "w"]).aggregate(Sum("n", alias_name="n")) \
        .materialize()
    tot = relational.ds_to_table(
        counts.groupby("source").aggregate(Sum("n", alias_name="nt"))
    ).to_pandas()
    totals = dict(zip(tot["source"], tot["nt"].astype(np.int64)))
    srcs = sorted(totals)
    tref = ray.put(totals)

    def bucketize(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_bucket", pa.array(stable_bucket(t["w"], 64)))

    def pair_part(df: pd.DataFrame) -> pd.DataFrame:
        tt = relational.worker_cached(("jsd_tot", tref),
                                      lambda: ray.get(tref))
        piv = df.pivot_table(index="w", columns="source", values="n",
                             aggfunc="sum", fill_value=0)
        rows = []
        for i, sa in enumerate(srcs):
            for sb in srcs[i + 1:]:
                ca = piv[sa].to_numpy(np.int64) if sa in piv else \
                    np.zeros(len(piv), dtype=np.int64)
                cb = piv[sb].to_numpy(np.int64) if sb in piv else \
                    np.zeros(len(piv), dtype=np.int64)
                p = ca / float(tt[sa])
                q = cb / float(tt[sb])
                m = (p + q) / 2.0
                with np.errstate(divide="ignore", invalid="ignore"):
                    ta = np.where(ca > 0, p * np.log(
                        np.where(ca > 0, p, 1.0) / np.where(m > 0, m, 1.0)), 0.0)
                    tb = np.where(cb > 0, q * np.log(
                        np.where(cb > 0, q, 1.0) / np.where(m > 0, m, 1.0)), 0.0)
                rows.append({"sa": sa, "sb": sb,
                             "part": float(np.sum(0.5 * (ta + tb)))})
        return pd.DataFrame(rows)

    parts = counts.map_batches(bucketize, batch_format="pyarrow") \
        .groupby("_bucket").map_groups(pair_part, batch_format="pandas")
    g = relational.ds_to_table(parts).to_pandas() \
        .groupby(["sa", "sb"], sort=True)["part"].sum().reset_index()
    g["jsd"] = g["part"].round(6)
    return g[["sa", "sb", "jsd"]]


SQL_JSD_SOURCE = """
WITH wc AS (SELECT source, UNNEST(string_split(text, ' ')) AS w
            FROM documents),
c AS (SELECT source, w, CAST(COUNT(*) AS BIGINT) AS n
      FROM wc GROUP BY 1, 2),
tot AS (SELECT source, SUM(n) AS nt FROM c GROUP BY 1),
pairs AS (SELECT a.source AS sa, a.nt AS na, b.source AS sb, b.nt AS nb
          FROM tot a JOIN tot b ON a.source < b.source),
u AS (SELECT DISTINCT w FROM c),
t AS (SELECT p.sa, p.sb, p.na, p.nb,
             COALESCE(a.n, 0) AS ca, COALESCE(b.n, 0) AS cb
      FROM pairs p
      CROSS JOIN u
      LEFT JOIN c a ON a.source = p.sa AND a.w = u.w
      LEFT JOIN c b ON b.source = p.sb AND b.w = u.w
      WHERE COALESCE(a.n, 0) + COALESCE(b.n, 0) > 0)
SELECT sa, sb,
       ROUND(SUM(0.5 * (
         CASE WHEN ca > 0
              THEN (ca / CAST(na AS DOUBLE))
                   * ln((ca / CAST(na AS DOUBLE))
                        / ((ca / CAST(na AS DOUBLE)
                            + cb / CAST(nb AS DOUBLE)) / 2.0))
              ELSE 0 END
         + CASE WHEN cb > 0
                THEN (cb / CAST(nb AS DOUBLE))
                     * ln((cb / CAST(nb AS DOUBLE))
                          / ((ca / CAST(na AS DOUBLE)
                              + cb / CAST(nb AS DOUBLE)) / 2.0))
                ELSE 0 END)), 6) AS jsd
FROM t GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_mcnemar_langid(sf_dir: str):
    """McNemar's paired test between the TWO language classifiers the
    registry already ships — the stopword-profile heuristic
    (`stages.text.LangId`) and the add-1 naive-Bayes model — scored
    against the documents' true `lang` label.  The
    is-model-B-actually-better question must be answered on PAIRED
    errors (b = heuristic-only correct, c = NB-only correct;
    χ² = (b−c)²/(b+c)), not on two independent accuracies.  One pass
    adds the heuristic prediction, the NB broadcast scorer adds its
    own, a bucketed doc_id join pairs them, and each bucket's combine
    reduces straight to the 2×2 table — only ≤buckets partial rows
    leave the join."""
    from ...stages import ml
    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    heur = docs.map_batches(text.LangId, batch_format="pandas",
                            concurrency=2) \
        .map_batches(lambda t: t.select(["doc_id", "lang", "lang_pred"]),
                     batch_format="pyarrow")
    model = ml.nb_train(docs, text_col="text", label_col="lang")
    nb = ml.nb_predict(docs, model, text_col="text", id_col="doc_id") \
        .map_batches(lambda t: t.select(["doc_id", "pred_label"]),
                     batch_format="pyarrow")

    def to2x2(t: pa.Table) -> pa.Table:
        true = t["lang"].to_numpy(zero_copy_only=False)
        hp = t["lang_pred"].to_numpy(zero_copy_only=False)
        nbp = t["pred_label"].to_numpy(zero_copy_only=False)
        hok = hp == true
        nok = nbp == true
        return pa.table({
            "n_both": pa.array([int(np.sum(hok & nok))]),
            "b": pa.array([int(np.sum(hok & ~nok))]),
            "c": pa.array([int(np.sum(~hok & nok))]),
            "n_neither": pa.array([int(np.sum(~hok & ~nok))])})

    parts = relational.ds_to_table(relational.bucketed_hash_join(
        heur, nb, on="doc_id", combine=to2x2)).to_pandas()
    nb_ = int(parts["n_both"].sum())
    b = int(parts["b"].sum())
    c = int(parts["c"].sum())
    nn_ = int(parts["n_neither"].sum())
    chi2 = None if b + c == 0 else \
        round(float((b - c) * (b - c)) / (b + c), 6)
    return pd.DataFrame({"n_both": pd.array([nb_], dtype=np.int64),
                         "b": pd.array([b], dtype=np.int64),
                         "c": pd.array([c], dtype=np.int64),
                         "n_neither": pd.array([nn_], dtype=np.int64),
                         "chi2_mcnemar": [chi2]})


def _sql_mcnemar() -> str:
    """Twin of q_mcnemar_langid: the heuristic CASE chain is generated
    from the SAME _LANG_PROFILES dict as stages.text.LangId (identical
    construction to _langid_sql), the NB chain is SQL_NB_PREDICT's,
    and the 2×2 reduce is a single aggregate."""
    langs = list(text._LANG_PROFILES)
    pats = {
        lg: r"\b(?:" + "|".join(sorted(prof, key=len, reverse=True))
        + r")\b" for lg, prof in text._LANG_PROFILES.items()}
    counts = ",\n    ".join(
        f"length(regexp_extract_all(lower(text), '{pats[lg]}')) AS c_{lg}"
        for lg in langs)
    all_c = ", ".join(f"c_{lg}" for lg in langs)
    branches = []
    for i, lg in enumerate(langs):
        conds = " AND ".join(
            f"c_{lg} >= c_{other}" for other in langs[i + 1:])
        branches.append(f"WHEN {conds or 'TRUE'} THEN '{lg}'")
    case = "\n      ".join(branches)
    return f"""
WITH scored AS (
  SELECT doc_id, {counts}
  FROM documents),
hpred AS (
  SELECT doc_id,
    CASE WHEN GREATEST({all_c}) = 0 THEN 'und'
      {case}
    END AS hp
  FROM scored),
words AS (
  SELECT doc_id, lang, unnest(string_split(text, ' ')) AS w
  FROM documents),
wc AS (SELECT lang AS label, w, COUNT(*) AS c
       FROM words GROUP BY label, w),
tot AS (SELECT label, SUM(c) AS t FROM wc GROUP BY label),
cls AS (SELECT lang AS label, COUNT(*) AS nd FROM documents
        GROUP BY lang),
nv AS (SELECT COUNT(DISTINCT w) AS v,
              (SELECT COUNT(*) FROM documents) AS n FROM words),
sc AS (
  SELECT tk.doc_id, c.label,
         LN(CAST(c.nd AS DOUBLE) / nv.n)
           + SUM(LN((COALESCE(wc.c, 0) + 1.0) / (tot.t + nv.v))) AS s
  FROM words tk
  CROSS JOIN cls c
  CROSS JOIN nv
  JOIN tot ON tot.label = c.label
  LEFT JOIN wc ON wc.label = c.label AND wc.w = tk.w
  GROUP BY tk.doc_id, c.label, c.nd, nv.n, nv.v),
r AS (SELECT doc_id, label,
             ROW_NUMBER() OVER (PARTITION BY doc_id
                                ORDER BY s DESC, label) AS rn
      FROM sc),
j AS (SELECT d.lang, h.hp, r.label AS nbp
      FROM documents d
      JOIN hpred h ON h.doc_id = d.doc_id
      JOIN r ON r.doc_id = d.doc_id AND r.rn = 1),
m AS (SELECT
  SUM(CASE WHEN hp = lang AND nbp = lang THEN 1 ELSE 0 END) AS n_both,
  SUM(CASE WHEN hp = lang AND nbp <> lang THEN 1 ELSE 0 END) AS b,
  SUM(CASE WHEN hp <> lang AND nbp = lang THEN 1 ELSE 0 END) AS c,
  SUM(CASE WHEN hp <> lang AND nbp <> lang THEN 1 ELSE 0 END)
    AS n_neither
  FROM j)
SELECT CAST(n_both AS BIGINT) AS n_both, CAST(b AS BIGINT) AS b,
       CAST(c AS BIGINT) AS c, CAST(n_neither AS BIGINT) AS n_neither,
       ROUND(CAST((b - c) * (b - c) AS DOUBLE) / NULLIF(b + c, 0), 6)
         AS chi2_mcnemar
FROM m
"""


def q_katz_centrality_links(sf_dir: str):
    """Truncated Katz centrality (β = 1/4, walks of length ≤ 3) over
    the directed formula link graph — the damped path-count centrality
    between degree (l=1 only) and eigenvector/PageRank (l→∞).  The
    walk counts w_l(v) = Σ_{(u,v)} w_{l−1}(u) stay EXACT INTEGERS
    through 3 BSP rounds (one edge scan against the broadcast count
    array + a dst-sum reduce each, the same shape as the sssp/widest
    kernels), and because β is a power of two the score
    (16·w1 + 4·w2 + w3)/64 is a single EXACT dyadic division — no
    float drift anywhere.  Top-25 by (katz64 DESC, doc_id) so the
    output is bounded and the order is integer-total."""
    from ray.data.aggregate import Sum

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()

    def edges(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        src = np.repeat(d, 3)
        k = np.tile(np.array([1, 2, 3], dtype=np.int64), len(d))
        dst = (src * 7919 + k * 104729) % n
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    e = docs.map_batches(edges, batch_format="pyarrow")
    w = np.ones(n, dtype=np.int64)
    rounds = []
    for _ in range(3):
        wref = ray.put(w)

        def relax(t: pa.Table, _w=wref) -> pa.Table:
            wv = ray.get(_w)
            src = t["src"].to_numpy(zero_copy_only=False)
            return pa.table({"dst": t["dst"],
                             "c": pa.array(wv[src])})

        upd = relational.ds_to_table(
            e.map_batches(relax, batch_format="pyarrow")
            .groupby("dst").aggregate(Sum("c", alias_name="s"))
        ).to_pandas()
        w = np.zeros(n, dtype=np.int64)
        w[upd["dst"].to_numpy(np.int64)] = upd["s"].to_numpy(np.int64)
        rounds.append(w)
    w1, w2, w3 = rounds
    k64 = 16 * w1 + 4 * w2 + w3
    top = np.array(sorted(range(n), key=lambda i: (-k64[i], i))[:25])
    return pd.DataFrame({
        "doc_id": top.astype(np.int64),
        "w1": w1[top], "w2": w2[top], "w3": w3[top],
        "katz": (k64[top] / 64.0).round(6)})


SQL_KATZ = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
e AS (SELECT d.doc_id AS src,
             (d.doc_id * 7919 + k.k * 104729) % nn.n AS dst
      FROM documents d, (SELECT unnest([1, 2, 3]) AS k) k, nn),
v0 AS (SELECT doc_id AS v, CAST(1 AS BIGINT) AS w FROM documents),
v1 AS (SELECT e.dst AS v, SUM(v0.w) AS w
       FROM e JOIN v0 ON v0.v = e.src GROUP BY e.dst),
v2 AS (SELECT e.dst AS v, SUM(v1.w) AS w
       FROM e JOIN v1 ON v1.v = e.src GROUP BY e.dst),
v3 AS (SELECT e.dst AS v, SUM(v2.w) AS w
       FROM e JOIN v2 ON v2.v = e.src GROUP BY e.dst),
k AS (SELECT d.doc_id,
             COALESCE(v1.w, 0) AS w1, COALESCE(v2.w, 0) AS w2,
             COALESCE(v3.w, 0) AS w3,
             16 * COALESCE(v1.w, 0) + 4 * COALESCE(v2.w, 0)
               + COALESCE(v3.w, 0) AS k64
      FROM documents d
      LEFT JOIN v1 ON v1.v = d.doc_id
      LEFT JOIN v2 ON v2.v = d.doc_id
      LEFT JOIN v3 ON v3.v = d.doc_id)
SELECT doc_id, w1, w2, w3, ROUND(k64 / 64.0, 6) AS katz
FROM k
QUALIFY ROW_NUMBER() OVER (ORDER BY k64 DESC, doc_id) <= 25
ORDER BY k64 DESC, doc_id
"""


def q_minhash_jaccard_fidelity(sf_dir: str):
    """Sketch-fidelity audit: for the deterministic pair sample
    (doc i ↔ i+250) report the EXACT 5-gram Jaccard next to the
    64-permutation MinHash agreement fraction — the per-pair error
    table that justifies (or indicts) the LSH dedup threshold.  The
    signatures come from the production `MinHasher` stage itself (so
    the audit can never drift from the pipeline it audits); the twin
    reproduces the full signature arithmetic in SQL — byte-polynomial
    shingle hash mod 2⁶⁴ (ring-homomorphism window taps), the 61-bit
    mask, and the (a·h + b) universal mix INCLUDING the engine's
    uint64 wraparound — with the 64 seeded (a, b) coefficients emitted
    as a VALUES list from the same generator.  n_match is an integer
    and j_est = n_match/64 an exact dyadic, so every column is
    hash-stable."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    sample = docs.filter(expr="doc_id < 500")
    sigs = relational.ds_to_table(
        sample.map_batches(dd.MinHasher, batch_format="pyarrow",
                           concurrency=2)
        .select_columns(["doc_id", "minhash"])).to_pandas()
    sig = {int(r.doc_id): np.asarray(r.minhash, dtype=np.uint64)
           for r in sigs.itertuples()}
    pairs = docs.filter(expr="doc_id < 250").map_batches(
        lambda t: pa.table({"a": t["doc_id"],
                            "b": pc.add(t["doc_id"], 250)}),
        batch_format="pyarrow")
    ex = dd.jaccard_verify_pairs(pairs, docs, key_col="doc_id",
                                 text_col="text", shingle_k=5,
                                 emit_score=True).to_pandas()
    rows = []
    for a, b, j in zip(ex["a"], ex["b"], ex["jaccard"]):
        m = int(np.sum(sig[int(a)] == sig[int(b)]))
        rows.append({"a": int(a), "b": int(b),
                     "j_exact": round(float(j), 4),
                     "n_match": m, "j_est": m / 64.0})
    return pd.DataFrame(rows).astype({"a": np.int64, "b": np.int64,
                                      "n_match": np.int64})


def _sql_minhash_fidelity() -> str:
    """Twin of q_minhash_jaccard_fidelity over the shared signature
    prefix (`_sql_minhash_sig_prefix`)."""
    return f"""
WITH {_sql_minhash_sig_prefix()},
mt AS (SELECT p.a, p.b,
              CAST(SUM(CASE WHEN x.mh = y.mh THEN 1 ELSE 0 END)
                   AS BIGINT) AS n_match
       FROM pairs p
       JOIN sig x ON x.doc_id = p.a
       JOIN sig y ON y.doc_id = p.b AND y.pid = x.pid
       GROUP BY 1, 2),
g5 AS (
  SELECT DISTINCT doc_id, substr(text, CAST(i AS INT), 5) AS g
  FROM (SELECT doc_id, text,
               unnest(generate_series(1, GREATEST(length(text) - 4, 1)))
                 AS i
        FROM documents)),
sizes AS (SELECT doc_id, COUNT(*) AS n FROM g5 GROUP BY doc_id),
inter AS (SELECT p.a, p.b, COUNT(*) AS ni
          FROM pairs p
          JOIN g5 x ON x.doc_id = p.a
          JOIN g5 y ON y.doc_id = p.b AND y.g = x.g
          GROUP BY p.a, p.b)
SELECT p.a, p.b,
       ROUND(CAST(COALESCE(i.ni, 0) AS DOUBLE)
             / (sa.n + sb.n - COALESCE(i.ni, 0)), 4) AS j_exact,
       mt.n_match, mt.n_match / 64.0 AS j_est
FROM pairs p
JOIN sizes sa ON sa.doc_id = p.a
JOIN sizes sb ON sb.doc_id = p.b
JOIN mt ON mt.a = p.a AND mt.b = p.b
LEFT JOIN inter i ON i.a = p.a AND i.b = p.b
ORDER BY p.a
"""


def q_ari_langid(sf_dir: str):
    """Adjusted Rand Index between the true ``lang`` partition and the
    LangId prediction partition — THE standard chance-corrected
    pair-counting agreement score (Hubert & Arabie) for comparing two
    labelings of the same corpus, the external-validation number a
    clustering/classifier eval reports next to κ.  All four pair
    counts ΣC(n_ij,2), ΣC(a_i,2), ΣC(b_j,2), C(n,2) fold as exact
    python ints from the SAME memoized langs²-bounded confusion
    matrix the κ/MCC family reads (the corpus is never re-classified),
    and the index is ONE mirrored double expression; the twin
    regenerates the classifier CTE from the shared profile dict (the
    no-drift contract)."""
    conf = q_langid_confusion(sf_dir)
    n = int(conf["n"].sum())
    sij = sum(int(c) * (int(c) - 1) // 2 for c in conf["n"])
    sa = sum(int(c) * (int(c) - 1) // 2
             for c in conf.groupby("lang")["n"].sum())
    sb = sum(int(c) * (int(c) - 1) // 2
             for c in conf.groupby("lang_pred")["n"].sum())
    sn = n * (n - 1) // 2
    exp = float(sa) * float(sb) / float(sn)
    den = (float(sa) + float(sb)) / 2.0 - exp
    ari = None if den == 0.0 else \
        float(np.round((float(sij) - exp) / den, 6))
    return pd.DataFrame([{
        "n_docs": n, "pairs_both": sij, "pairs_true": sa,
        "pairs_pred": sb, "ari": ari}]).astype({
            "n_docs": np.int64, "pairs_both": np.int64,
            "pairs_true": np.int64, "pairs_pred": np.int64})


def _sql_ari_langid() -> str:
    return f"""
WITH {_langid_pred_sql_body().lstrip()},
conf AS (SELECT lang, lang_pred, CAST(COUNT(*) AS HUGEINT) AS n
         FROM pred GROUP BY 1, 2),
s AS (SELECT SUM(n) AS nn, SUM(n * (n - 1) // 2) AS sij FROM conf),
ra AS (SELECT SUM(c * (c - 1) // 2) AS sa
       FROM (SELECT SUM(n) AS c FROM conf GROUP BY lang)),
cb AS (SELECT SUM(c * (c - 1) // 2) AS sb
       FROM (SELECT SUM(n) AS c FROM conf GROUP BY lang_pred)),
f AS (SELECT s.nn, s.sij, ra.sa, cb.sb,
             CAST(ra.sa AS DOUBLE) * CAST(cb.sb AS DOUBLE)
               / CAST(s.nn * (s.nn - 1) // 2 AS DOUBLE) AS expv
      FROM s, ra, cb)
SELECT CAST(nn AS BIGINT) AS n_docs,
       CAST(sij AS BIGINT) AS pairs_both,
       CAST(sa AS BIGINT) AS pairs_true,
       CAST(sb AS BIGINT) AS pairs_pred,
       CASE WHEN (CAST(sa AS DOUBLE) + CAST(sb AS DOUBLE)) / 2.0
                 - expv = 0.0 THEN NULL
            ELSE ROUND((CAST(sij AS DOUBLE) - expv)
                       / ((CAST(sa AS DOUBLE) + CAST(sb AS DOUBLE))
                          / 2.0 - expv), 6) END AS ari
FROM f
"""


_RICH_CLUB_KCAP = 4096


def q_rich_club_links(sf_dir: str):
    """Rich-club coefficient curve φ(k) = 2·E_k / (N_k·(N_k−1)) over
    the normalized undirected formula link graph — do high-degree
    nodes link to EACH OTHER more than density predicts (the
    hub-oligarchy diagnostic of web/citation graphs)?  N_k and E_k
    for EVERY k come from two bounded histograms, not per-k passes:
    degrees fold in one reduce, the edge scan looks both endpoints up
    in the broadcast node-bounded degree array and bincounts
    min(d_u, d_v) per batch (≤ max-degree rows into the final
    reduce), and survival cumsums finish on the driver.  k ranges
    1..min(max_degree−1, 4095) — the same constant cap the twin's
    generate_series uses (generate_series cannot take a subquery
    bound); rows with N_k < 2 drop on both sides."""
    from ray.data.aggregate import Sum
    from ...stages.graph_ops import _normalize_undirected

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()

    def edges(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        src = np.repeat(d, 3)
        k = np.tile(np.array([1, 2, 3], dtype=np.int64), len(d))
        dst = (src * src * 31 + k * 104729) % n
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    und = _normalize_undirected(
        docs.map_batches(edges, batch_format="pyarrow"),
        "src", "dst").materialize()

    dt = relational.ds_to_table(
        und.map_batches(lambda t: pa.table({
            "v": pa.array(np.concatenate([
                t["ea"].to_numpy(zero_copy_only=False),
                t["eb"].to_numpy(zero_copy_only=False)])),
            "c": pa.array(np.ones(2 * t.num_rows, dtype=np.int64))}),
            batch_format="pyarrow")
        .groupby("v").aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    deg = np.zeros(n, dtype=np.int64)
    deg[dt["v"].to_numpy(np.int64)] = dt["c"].to_numpy(np.int64)
    dref = ray.put(deg)
    maxd = int(deg.max(initial=0))

    def md_partial(t: pa.Table) -> pa.Table:
        dg = ray.get(dref)
        md = np.minimum(dg[t["ea"].to_numpy(zero_copy_only=False)],
                        dg[t["eb"].to_numpy(zero_copy_only=False)])
        cnt = np.bincount(md, minlength=maxd + 1)
        nz = np.nonzero(cnt)[0]
        return pa.table({"md": pa.array(nz.astype(np.int64)),
                         "c": pa.array(cnt[nz].astype(np.int64))})

    mdt = relational.ds_to_table(
        und.map_batches(md_partial, batch_format="pyarrow")
        .groupby("md").aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    ecnt = np.zeros(maxd + 1, dtype=np.int64)
    ecnt[mdt["md"].to_numpy(np.int64)] = mdt["c"].to_numpy(np.int64)
    dcnt = np.bincount(deg[deg > 0], minlength=maxd + 1)

    # survival counts: N_k = #nodes with degree > k, E_k likewise
    nk_above = dcnt[::-1].cumsum()[::-1]       # nk_above[d] = #(deg >= d)
    ek_above = ecnt[::-1].cumsum()[::-1]
    rows = []
    for k in range(1, min(maxd, _RICH_CLUB_KCAP)):
        nk = int(nk_above[k + 1]) if k + 1 <= maxd else 0
        ek = int(ek_above[k + 1]) if k + 1 <= maxd else 0
        if nk < 2:
            continue
        rows.append({
            "k": k, "n_nodes": nk, "n_edges": ek,
            "phi": float(np.round(
                2.0 * float(ek) / (float(nk) * float(nk - 1)), 6))})
    return pd.DataFrame(rows).astype({"k": np.int64,
                                      "n_nodes": np.int64,
                                      "n_edges": np.int64})


SQL_RICH_CLUB = f"""
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
e0 AS (SELECT d.doc_id AS src,
              (d.doc_id * d.doc_id * 31 + k.k * 104729) % nn.n AS dst
       FROM documents d, (SELECT unnest([1, 2, 3]) AS k) k, nn),
e AS (SELECT DISTINCT LEAST(src, dst) AS ea, GREATEST(src, dst) AS eb
      FROM e0 WHERE src <> dst),
dg AS (SELECT v, CAST(COUNT(*) AS BIGINT) AS d
       FROM (SELECT ea AS v FROM e UNION ALL SELECT eb FROM e)
       GROUP BY 1),
ks AS (SELECT k FROM generate_series(1, {_RICH_CLUB_KCAP - 1}) t(k)
       WHERE k < (SELECT MAX(d) FROM dg)),
nk AS (SELECT ks.k, CAST(COUNT(*) AS BIGINT) AS nk
       FROM ks JOIN dg ON dg.d > ks.k GROUP BY 1),
me AS (SELECT LEAST(a.d, b.d) AS md
       FROM e JOIN dg a ON a.v = e.ea JOIN dg b ON b.v = e.eb),
ek AS (SELECT ks.k, CAST(COUNT(*) AS BIGINT) AS ek
       FROM ks JOIN me ON me.md > ks.k GROUP BY 1)
SELECT nk.k AS k, nk.nk AS n_nodes, COALESCE(ek.ek, 0) AS n_edges,
       ROUND(2.0 * CAST(COALESCE(ek.ek, 0) AS DOUBLE)
             / (CAST(nk.nk AS DOUBLE) * CAST(nk.nk - 1 AS DOUBLE)),
             6) AS phi
FROM nk LEFT JOIN ek ON ek.k = nk.k
WHERE nk.nk >= 2
ORDER BY k
"""


def q_importance_weights_dsir(sf_dir: str):
    """DSIR-style data-selection importance weights (Xie et al. 2023,
    'Data Selection for Language Models via Importance Resampling'):
    per-document log-likelihood ratio of a TARGET unigram bag model
    (the lang='en' slice) against the SOURCE model (the whole corpus),
    add-one smoothed — the score a pretraining pipeline resamples raw
    crawl by to match a target domain.  One token-count pass folds
    (c_all, c_en) per word into a vocab-bounded reduce; the per-word
    log-ratio quantizes ONCE on the driver to nano-units with
    floor(x·1e9 + 0.5) (math.log bit-matches DuckDB LN on this host,
    so the BIGINT deltas are identical on both sides and the per-doc
    sums are EXACT integer folds immune to float summation order);
    pass 2 looks tokens up in the broadcast delta map (per-worker
    cached).  Tokenization is the registry's top_words convention
    (single-space split, empties kept) so the twin's string_split
    mirrors it verbatim.  At 100 TB the vocab broadcast is the
    size-guarded piece — the scale path hashes tokens into a fixed
    bucket table (the paper's hashed n-gram variant) before the
    reduce."""
    import math
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["doc_id", "lang", "text"])

    def counts(t: pa.Table) -> pa.Table:
        txt = t["text"].to_pandas()
        en = (t["lang"].to_pandas() == "en").to_numpy()
        toks = txt.str.split(" ")
        lens = toks.str.len().to_numpy()
        g = pd.DataFrame({
            "w": np.concatenate(toks.to_numpy()),
            "c_all": 1,
            "c_en": np.repeat(en, lens).astype(np.int64)}) \
            .groupby("w", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    vocab = relational.ds_to_table(
        docs.map_batches(counts, batch_format="pyarrow")
        .groupby("w").aggregate(Sum("c_all", alias_name="c_all"),
                                Sum("c_en", alias_name="c_en"))
    ).to_pandas()
    S = int(vocab["c_all"].sum())
    T = int(vocab["c_en"].sum())
    V = len(vocab)
    delta = {
        w: int(math.floor(
            (math.log((ce + 1.0) / (T + V))
             - math.log((ca + 1.0) / (S + V))) * 1e9 + 0.5))
        for w, ca, ce in zip(vocab["w"], vocab["c_all"].astype(int),
                             vocab["c_en"].astype(int))}
    dref = ray.put(delta)

    def score(t: pa.Table) -> pa.Table:
        dmap = relational.worker_cached(("dsir_delta", dref),
                                        lambda: ray.get(dref))
        toks = t["text"].to_pandas().str.split(" ")
        lens = toks.str.len().to_numpy(np.int64)
        flat = pd.Series(np.concatenate(toks.to_numpy()))
        dl = flat.map(dmap).to_numpy(np.int64)
        ends = lens.cumsum()
        llr = np.add.reduceat(dl, np.concatenate([[0], ends[:-1]]))
        llr[lens == 0] = 0
        # trunc-division (DuckDB // truncates toward zero; python //
        # floors — mirror trunc explicitly so negative llr agrees)
        per_tok = np.sign(llr) * (np.abs(llr) // lens)
        return pa.table({
            "doc_id": t["doc_id"], "n_tokens": pa.array(lens),
            "llr_nano": pa.array(llr),
            "llr_nano_per_token": pa.array(per_tok)})

    out = relational.ds_to_table(
        docs.map_batches(score, batch_format="pyarrow")
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    return out.astype({"doc_id": np.int64, "n_tokens": np.int64,
                       "llr_nano": np.int64,
                       "llr_nano_per_token": np.int64})


SQL_DSIR = """
WITH tok AS (SELECT doc_id, lang,
                    unnest(string_split(text, ' ')) AS w
             FROM documents),
vc AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS c_all,
              CAST(SUM(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)
                   AS BIGINT) AS c_en
       FROM tok GROUP BY 1),
tot AS (SELECT SUM(c_all) AS s, SUM(c_en) AS t,
               COUNT(*) AS v FROM vc),
d AS (SELECT w, CAST(FLOOR((LN((c_en + 1.0) / (t + v))
                            - LN((c_all + 1.0) / (s + v)))
                           * 1000000000.0 + 0.5) AS BIGINT) AS delta
      FROM vc, tot)
SELECT tok.doc_id, CAST(COUNT(*) AS BIGINT) AS n_tokens,
       CAST(SUM(d.delta) AS BIGINT) AS llr_nano,
       CAST(SUM(d.delta) // COUNT(*) AS BIGINT)
         AS llr_nano_per_token
FROM tok JOIN d USING (w)
GROUP BY 1 ORDER BY doc_id
"""


def q_v_measure_langid(sf_dir: str):
    """Homogeneity / completeness / V-measure of the LangId prediction
    against the true labels (Rosenberg & Hirschberg) — the
    entropy-based agreement triple next to the registry's ARI and κ,
    from the SAME memoized confusion matrix.  Every entropy term
    quantizes to nano-units with floor(x·1e9 + 0.5) BEFORE summation
    (math.log bit-matches DuckDB LN here), so the four entropy sums
    are EXACT integer folds immune to SQL's unordered SUM; the three
    ratios are mirrored double expressions with the degenerate
    single-cluster cases pinned to 1.0 like the twin's CASE."""
    import math
    conf = q_langid_confusion(sf_dir)
    n = int(conf["n"].sum())
    row = conf.groupby("lang")["n"].sum()
    col = conf.groupby("lang_pred")["n"].sum()

    def q(x: float) -> int:
        return int(math.floor(x * 1e9 + 0.5))

    hcn = sum(q((int(a) / n) * math.log(int(a) / n)) for a in row)
    hkn = sum(q((int(b) / n) * math.log(int(b) / n)) for b in col)
    bmap = {k: int(v) for k, v in col.items()}
    amap = {k: int(v) for k, v in row.items()}
    hckn = sum(q((int(r.n) / n)
                 * math.log(int(r.n) / bmap[r.lang_pred]))
               for r in conf.itertuples(index=False))
    hkcn = sum(q((int(r.n) / n)
                 * math.log(int(r.n) / amap[r.lang]))
               for r in conf.itertuples(index=False))
    hom = 1.0 if hcn == 0 else \
        1.0 - (-(float(hckn) / 1e9)) / (-(float(hcn) / 1e9))
    com = 1.0 if hkn == 0 else \
        1.0 - (-(float(hkcn) / 1e9)) / (-(float(hkn) / 1e9))
    v = 0.0 if hom + com == 0.0 else 2.0 * hom * com / (hom + com)
    return pd.DataFrame([{
        "n_docs": n, "hc_nano": -hcn, "hk_nano": -hkn,
        "homogeneity": float(np.round(hom, 6)),
        "completeness": float(np.round(com, 6)),
        "v_measure": float(np.round(v, 6))}]).astype({
            "n_docs": np.int64, "hc_nano": np.int64,
            "hk_nano": np.int64})


def _sql_v_measure() -> str:
    return f"""
WITH {_langid_pred_sql_body().lstrip()},
conf AS (SELECT lang, lang_pred, CAST(COUNT(*) AS BIGINT) AS n
         FROM pred GROUP BY 1, 2),
tot AS (SELECT SUM(n) AS nn FROM conf),
ra AS (SELECT lang, SUM(n) AS a FROM conf GROUP BY 1),
cb AS (SELECT lang_pred, SUM(n) AS b FROM conf GROUP BY 1),
hc AS (SELECT SUM(CAST(FLOOR((CAST(a AS DOUBLE) / nn)
                 * LN(CAST(a AS DOUBLE) / nn)
                 * 1000000000.0 + 0.5) AS BIGINT)) AS hcn
       FROM ra, tot),
hk AS (SELECT SUM(CAST(FLOOR((CAST(b AS DOUBLE) / nn)
                 * LN(CAST(b AS DOUBLE) / nn)
                 * 1000000000.0 + 0.5) AS BIGINT)) AS hkn
       FROM cb, tot),
hck AS (SELECT SUM(CAST(FLOOR((CAST(n AS DOUBLE) / nn)
                  * LN(CAST(n AS DOUBLE) / b)
                  * 1000000000.0 + 0.5) AS BIGINT)) AS hckn
        FROM conf JOIN cb USING (lang_pred), tot),
hkc AS (SELECT SUM(CAST(FLOOR((CAST(n AS DOUBLE) / nn)
                  * LN(CAST(n AS DOUBLE) / a)
                  * 1000000000.0 + 0.5) AS BIGINT)) AS hkcn
        FROM conf JOIN ra USING (lang), tot),
f AS (SELECT tot.nn, hc.hcn, hk.hkn,
             CASE WHEN hc.hcn = 0 THEN 1.0
                  ELSE 1.0 - (-(CAST(hck.hckn AS DOUBLE) / 1e9))
                       / (-(CAST(hc.hcn AS DOUBLE) / 1e9)) END AS hom,
             CASE WHEN hk.hkn = 0 THEN 1.0
                  ELSE 1.0 - (-(CAST(hkc.hkcn AS DOUBLE) / 1e9))
                       / (-(CAST(hk.hkn AS DOUBLE) / 1e9)) END AS com
      FROM tot, hc, hk, hck, hkc)
SELECT CAST(nn AS BIGINT) AS n_docs,
       CAST(-hcn AS BIGINT) AS hc_nano,
       CAST(-hkn AS BIGINT) AS hk_nano,
       ROUND(hom, 6) AS homogeneity, ROUND(com, 6) AS completeness,
       ROUND(CASE WHEN hom + com = 0.0 THEN 0.0
                  ELSE 2.0 * hom * com / (hom + com) END, 6)
         AS v_measure
FROM f
"""


_UNIMAX_CAP = 3          # max epochs any language may repeat
_UNIMAX_BUDGET_X = 2     # total training budget = 2 × corpus tokens


def q_unimax_token_budget(sf_dir: str):
    """UniMax per-language token-budget allocation (Chung et al.
    2023) — the mixture planner for multilingual pretraining: given a
    total budget B = 2·T and an epoch cap C = 3, low-resource
    languages are capped at C·tᵢ tokens and the remainder splits
    EQUALLY among the rest (waterfilling).  The greedy ascending scan
    has the closed form: the capped set is the longest PREFIX (by
    ascending token count) where C·tᵢ·(langs remaining) < budget
    remaining — an all-integer inequality, so the capped/uncapped
    split is exact on both sides; only the equal-share and epochs
    columns are mirrored doubles.  Token counts are the registry's
    whitespace-split convention, one tiny per-lang reduce."""
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["lang", "text"])

    def partial(t: pa.Table) -> pa.Table:
        toks = t["text"].to_pandas().str.split(" ").str.len() \
            .to_numpy(np.int64)
        g = pd.DataFrame({"lang": t["lang"].to_numpy(
            zero_copy_only=False), "t": toks}) \
            .groupby("lang", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    tl = relational.ds_to_table(
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("lang").aggregate(Sum("t", alias_name="t"))
    ).to_pandas().sort_values(["t", "lang"]).reset_index(drop=True)
    t = tl["t"].astype(int).tolist()
    n = len(t)
    B = _UNIMAX_BUDGET_X * sum(t)
    capped = []
    rem = B
    unbroken = True
    for i in range(n):
        # prefix-closed: capped while no violation seen yet
        if unbroken and _UNIMAX_CAP * t[i] * (n - i) < rem:
            capped.append(True)
            rem -= _UNIMAX_CAP * t[i]
        else:
            capped.append(False)
            unbroken = False
    k = sum(capped)
    share_num = B - _UNIMAX_CAP * sum(t[:k])
    rows = []
    for i in range(n):
        if capped[i]:
            alloc = float(_UNIMAX_CAP * t[i])
        else:
            alloc = float(share_num) / float(n - k)
        rows.append({
            "lang": tl["lang"].iloc[i], "tokens": t[i],
            "capped": bool(capped[i]),
            "alloc_tokens": float(np.round(alloc, 6)),
            "epochs": float(np.round(alloc / float(t[i]), 6))})
    return pd.DataFrame(rows).sort_values("lang") \
        .reset_index(drop=True).astype({"tokens": np.int64})


SQL_UNIMAX = f"""
WITH tl AS (SELECT lang,
                   CAST(SUM(len(string_split(text, ' '))) AS BIGINT)
                     AS t
            FROM documents GROUP BY 1),
tot AS (SELECT {_UNIMAX_BUDGET_X} * SUM(t) AS b,
               COUNT(*) AS n FROM tl),
o AS (SELECT lang, t,
             ROW_NUMBER() OVER (ORDER BY t, lang) AS i,
             COALESCE(SUM(t) OVER (ORDER BY t, lang
                 ROWS BETWEEN UNBOUNDED PRECEDING
                 AND 1 PRECEDING), 0) AS cumt
      FROM tl),
c AS (SELECT o.*, tot.b, tot.n,
             CASE WHEN {_UNIMAX_CAP} * t * (n - i + 1)
                       < b - {_UNIMAX_CAP} * cumt
                  THEN 1 ELSE 0 END AS cond
      FROM o, tot),
pf AS (SELECT *, CASE WHEN SUM(1 - cond) OVER (ORDER BY i) = 0
                      THEN 1 ELSE 0 END AS capped
       FROM c),
ks AS (SELECT SUM(capped) AS k,
              SUM(CASE WHEN capped = 1 THEN {_UNIMAX_CAP} * t
                       ELSE 0 END) AS capsum
       FROM pf)
SELECT lang, t AS tokens, capped = 1 AS capped,
       ROUND(CASE WHEN capped = 1
                  THEN CAST({_UNIMAX_CAP} * t AS DOUBLE)
                  ELSE CAST(b - ks.capsum AS DOUBLE)
                       / CAST(n - ks.k AS DOUBLE) END, 6)
         AS alloc_tokens,
       ROUND(CASE WHEN capped = 1
                  THEN CAST({_UNIMAX_CAP} * t AS DOUBLE)
                  ELSE CAST(b - ks.capsum AS DOUBLE)
                       / CAST(n - ks.k AS DOUBLE) END
             / CAST(t AS DOUBLE), 6) AS epochs
FROM pf, ks ORDER BY lang
"""


def q_eb_shrunk_rate_by_source(sf_dir: str):
    """Empirical-Bayes (beta-binomial) shrinkage of per-source
    English-document rates — the small-sample-stabilized rate table a
    corpus dashboard should show instead of raw ratios: a
    method-of-moments Beta prior is fit on NANO-QUANTIZED per-source
    rates (pᵢ·1e9 via integer division — the moment sums are exact
    ints, SQL's unordered SUM cannot drift), then each source's rate
    shrinks to (α+sᵢ)/(α+β+nᵢ).  α, β and the shrunken rates are
    mirrored double expressions of the exact moments; a degenerate
    zero-variance prior (all rates equal) pins shrunk = raw like the
    twin's CASE."""
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["source", "lang"])

    def partial(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({
            "source": t["source"].to_numpy(zero_copy_only=False),
            "n": 1,
            "s": (t["lang"].to_numpy(zero_copy_only=False)
                  == "en").astype(np.int64)}) \
            .groupby("source", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("source").aggregate(Sum("n", alias_name="n"),
                                     Sum("s", alias_name="s"))
    ).to_pandas().sort_values("source").reset_index(drop=True)
    n = agg["n"].astype(int).tolist()
    s = agg["s"].astype(int).tolist()
    k = len(n)
    pn = [(x * 10 ** 9) // y for x, y in zip(s, n)]   # nano-rates
    sp = sum(pn)
    sp2 = sum(x * x for x in pn)
    # mu, var of the nano-rates (population); MoM Beta fit
    mu = float(sp) / float(k) / 1e9
    var = (float(sp2) / float(k)
           - (float(sp) / float(k)) * (float(sp) / float(k))) / 1e18
    if var <= 0.0 or mu <= 0.0 or mu >= 1.0:
        ab = None
    else:
        common = mu * (1.0 - mu) / var - 1.0
        ab = (mu * common, (1.0 - mu) * common) \
            if common > 0.0 else None
    rows = []
    for i in range(k):
        raw = float(np.round(float(s[i]) / float(n[i]), 6))
        if ab is None:
            shr = raw
        else:
            shr = float(np.round(
                (ab[0] + float(s[i]))
                / (ab[0] + ab[1] + float(n[i])), 6))
        rows.append({"source": agg["source"].iloc[i],
                     "n_docs": n[i], "n_en": s[i],
                     "raw_rate": raw, "shrunk_rate": shr})
    return pd.DataFrame(rows).astype({"n_docs": np.int64,
                                      "n_en": np.int64})


SQL_EB_SHRUNK = """
WITH a AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n,
                  CAST(SUM(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)
                       AS BIGINT) AS s
           FROM documents GROUP BY 1),
p AS (SELECT source, n, s,
             (s * 1000000000) // n AS pn FROM a),
m AS (SELECT COUNT(*) AS k, SUM(pn) AS sp, SUM(pn * pn) AS sp2
      FROM p),
f AS (SELECT k, sp, sp2,
             CAST(sp AS DOUBLE) / k / 1e9 AS mu,
             (CAST(sp2 AS DOUBLE) / k
              - (CAST(sp AS DOUBLE) / k) * (CAST(sp AS DOUBLE) / k))
             / 1e18 AS var FROM m),
ab AS (SELECT mu, var,
              CASE WHEN var <= 0.0 OR mu <= 0.0 OR mu >= 1.0
                   THEN NULL
                   WHEN mu * (1.0 - mu) / var - 1.0 <= 0.0 THEN NULL
                   ELSE mu * (mu * (1.0 - mu) / var - 1.0) END
                AS alpha,
              CASE WHEN var <= 0.0 OR mu <= 0.0 OR mu >= 1.0
                   THEN NULL
                   WHEN mu * (1.0 - mu) / var - 1.0 <= 0.0 THEN NULL
                   ELSE (1.0 - mu) * (mu * (1.0 - mu) / var - 1.0)
              END AS beta
       FROM f)
SELECT p.source, p.n AS n_docs, p.s AS n_en,
       ROUND(CAST(p.s AS DOUBLE) / CAST(p.n AS DOUBLE), 6)
         AS raw_rate,
       CASE WHEN ab.alpha IS NULL
            THEN ROUND(CAST(p.s AS DOUBLE) / CAST(p.n AS DOUBLE), 6)
            ELSE ROUND((ab.alpha + CAST(p.s AS DOUBLE))
                       / (ab.alpha + ab.beta + CAST(p.n AS DOUBLE)),
                       6) END AS shrunk_rate
FROM p, ab ORDER BY p.source
"""


_RENDEZVOUS_SHARDS = 8


def _rendezvous_seeds() -> list:
    """8 odd 64-bit shard multipliers — one seeded generator feeds
    stage and twin (the AMS/Bloom contract)."""
    rs = np.random.RandomState(31337)
    hi = rs.randint(0, 1 << 32, size=_RENDEZVOUS_SHARDS) \
        .astype(np.uint64)
    lo = rs.randint(0, 1 << 32, size=_RENDEZVOUS_SHARDS) \
        .astype(np.uint64)
    return [int((h << np.uint64(32)) | l | np.uint64(1))
            for h, l in zip(hi, lo)]


def q_rendezvous_shard_stability(sf_dir: str):
    """Rendezvous (highest-random-weight) sharding stability audit —
    the property that makes HRW the assignment function for stateful
    actor pools: assign every document to argmax_j h_j(doc) over 8
    shards, remove shard 0, re-assign, and verify ONLY shard 0's
    documents moved (expected movement = 1/8 of the corpus, vs ~50%
    for mod-N).  The per-(doc, shard) weights are deterministic
    mod-2⁶⁴ multiply hashes, argmax ties break to the smaller shard
    id on both sides; every count is exact and the movement shares
    are mirrored divisions.  One vectorized per-batch pass, ≤8×2
    partial rows per batch."""
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["doc_id"])
    seeds = np.array(_rendezvous_seeds(), dtype=np.uint64)

    def assign(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64) + np.uint64(1)
        w = np.stack([d * s for s in seeds], axis=1)
        full = np.argmax(w, axis=1)          # ties -> smaller id
        red = np.argmax(w[:, 1:], axis=1) + 1
        moved = (full != red).astype(np.int64)
        g = pd.DataFrame({"shard": full, "pn": 1, "mv": moved}) \
            .groupby("shard", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        docs.map_batches(assign, batch_format="pyarrow")
        .groupby("shard").aggregate(Sum("pn", alias_name="n"),
                                    Sum("mv", alias_name="moved"))
    ).to_pandas().sort_values("shard").reset_index(drop=True)
    total = int(agg["n"].sum())
    rows = []
    for r in agg.itertuples(index=False):
        rows.append({
            "shard": int(r.shard), "n_docs": int(r.n),
            "n_moved": int(r.moved),
            "moved_share": float(np.round(
                float(int(r.moved)) / float(int(r.n)), 6)),
            "share_of_total": float(np.round(
                float(int(r.n)) / float(total), 6))})
    return pd.DataFrame(rows).astype({
        "shard": np.int64, "n_docs": np.int64, "n_moved": np.int64})


def _sql_rendezvous() -> str:
    seeds = _rendezvous_seeds()
    vals = ", ".join(f"({j}, {a})" for j, a in enumerate(seeds))
    return f"""
WITH sh AS (SELECT * FROM (VALUES {vals}) s(j, a)),
w AS (SELECT d.doc_id, sh.j,
             ((CAST(d.doc_id AS HUGEINT) + 1) * sh.a)
             % 18446744073709551616 AS wt
      FROM documents d, sh),
full_a AS (SELECT doc_id, j AS shard FROM (
             SELECT doc_id, j,
                    ROW_NUMBER() OVER (PARTITION BY doc_id
                                       ORDER BY wt DESC, j) AS rn
             FROM w) WHERE rn = 1),
red_a AS (SELECT doc_id, j AS shard FROM (
            SELECT doc_id, j,
                   ROW_NUMBER() OVER (PARTITION BY doc_id
                                      ORDER BY wt DESC, j) AS rn
            FROM w WHERE j >= 1) WHERE rn = 1),
j AS (SELECT f.shard, CASE WHEN f.shard <> r.shard THEN 1 ELSE 0 END
             AS mv
      FROM full_a f JOIN red_a r USING (doc_id)),
agg AS (SELECT shard, CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(mv) AS BIGINT) AS moved
        FROM j GROUP BY 1),
tot AS (SELECT SUM(n) AS total FROM agg)
SELECT shard, n AS n_docs, moved AS n_moved,
       ROUND(CAST(moved AS DOUBLE) / CAST(n AS DOUBLE), 6)
         AS moved_share,
       ROUND(CAST(n AS DOUBLE) / CAST(tot.total AS DOUBLE), 6)
         AS share_of_total
FROM agg, tot ORDER BY shard
"""


_LEXICON_TERMS = ("slow", "dup", "big")
_LEXICON_THRESHOLD = 3


def q_toxicity_lexicon_filter(sf_dir: str):
    """Blocklist-lexicon safety filter per source — the
    fixed-term-list screening stage every training-data pipeline runs
    before the expensive model-based filters (here with a placeholder
    lexicon over the synthetic vocabulary; swap the term tuple for a
    real blocklist).  Per-doc hit counts come from ONE vectorized
    arrow count_substring_regex pass per RE2 word-boundary pattern
    shared verbatim with the twin's regexp_extract_all; a doc flags
    at ≥ 3 hits and the per-source report carries exact doc/hit
    counts plus one mirrored flag-rate division."""
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["source", "text"])
    pat = r"\b(?:" + "|".join(_LEXICON_TERMS) + r")\b"

    def score(t: pa.Table) -> pa.Table:
        hits = pc.count_substring_regex(t["text"], pat)
        h = hits.to_numpy(zero_copy_only=False).astype(np.int64)
        g = pd.DataFrame({
            "source": t["source"].to_numpy(zero_copy_only=False),
            "n": 1, "hits": h,
            "flagged": (h >= _LEXICON_THRESHOLD).astype(np.int64)}) \
            .groupby("source", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        docs.map_batches(score, batch_format="pyarrow")
        .groupby("source").aggregate(
            Sum("n", alias_name="n_docs"),
            Sum("hits", alias_name="total_hits"),
            Sum("flagged", alias_name="n_flagged"))
    ).to_pandas().sort_values("source").reset_index(drop=True)
    agg = agg.astype({"n_docs": np.int64, "total_hits": np.int64,
                      "n_flagged": np.int64})
    agg["flag_rate"] = np.round(
        agg["n_flagged"].to_numpy(np.int64).astype(np.float64)
        / agg["n_docs"].to_numpy(np.int64), 6)
    return agg[["source", "n_docs", "total_hits", "n_flagged",
                "flag_rate"]]


SQL_LEXICON_FILTER = r"""
WITH h AS (SELECT source,
                  length(regexp_extract_all(
                      text, '\b(?:slow|dup|big)\b')) AS hits
           FROM documents)
SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(hits) AS BIGINT) AS total_hits,
       CAST(SUM(CASE WHEN hits >= 3 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_flagged,
       ROUND(CAST(SUM(CASE WHEN hits >= 3 THEN 1 ELSE 0 END)
                  AS DOUBLE) / COUNT(*), 6) AS flag_rate
FROM h GROUP BY 1 ORDER BY source
"""


def q_quantile_normalize_lengths(sf_dir: str):
    """Quantile normalization of per-source document-length
    distributions (the bioinformatics-standard distribution
    alignment, here the corpus-balancing version: every source's
    length profile is mapped onto the POOLED per-rank mean so no
    source's verbosity skews a mixed training batch).  Each source
    ranks its docs by (n_chars, doc_id) — the deterministic
    tiebreak — and the per-rank cross-source mean is the only
    mirrored double; ranks, lengths and rank sums are exact ints
    through one (source-bucketed) shuffle and one rank-keyed
    reduce."""
    from ray.data.aggregate import Count, Sum
    docs = _read(sf_dir, "documents", ["doc_id", "source",
                                       "n_chars"])

    def rank_in_source(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["source", "n_chars", "doc_id"])
        g["rnk"] = g.groupby("source", sort=False).cumcount() + 1
        return g

    ranked = docs.map_batches(lambda t: t.append_column(
        "_b", pa.array(relational.stable_bucket(t["source"], 16))),
        batch_format="pyarrow") \
        .groupby("_b").map_groups(rank_in_source,
                                  batch_format="pandas") \
        .materialize()
    per_rank = relational.ds_to_table(
        ranked.map_batches(lambda t: pa.table({
            "rnk": t["rnk"],
            "s": t["n_chars"].cast(pa.int64()),
            "c": pa.array(np.ones(t.num_rows, dtype=np.int64))}),
            batch_format="pyarrow")
        .groupby("rnk").aggregate(Sum("s", alias_name="s"),
                                  Count(alias_name="c"))
    ).to_pandas().set_index("rnk")
    rmax = int(per_rank.index.max())
    svec = np.zeros(rmax + 1, dtype=np.int64)
    cvec = np.ones(rmax + 1, dtype=np.int64)
    svec[per_rank.index.to_numpy(np.int64)] = \
        per_rank["s"].to_numpy(np.int64)
    cvec[per_rank.index.to_numpy(np.int64)] = \
        per_rank["c"].to_numpy(np.int64)
    rref = ray.put((svec, cvec))

    def attach(t: pa.Table) -> pa.Table:
        sv, cv = relational.worker_cached(("qnorm_rank", rref),
                                          lambda: ray.get(rref))
        r = t["rnk"].to_numpy(zero_copy_only=False).astype(np.int64)
        qn = sv[r].astype(np.float64) / cv[r]
        return pa.table({
            "doc_id": t["doc_id"], "source": t["source"],
            "n_chars": t["n_chars"], "rnk": pa.array(r),
            "qnorm": pa.array(np.round(qn, 6))})

    out = relational.ds_to_table(
        ranked.map_batches(attach, batch_format="pyarrow")
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    return out[["doc_id", "source", "n_chars", "rnk", "qnorm"]] \
        .astype({"doc_id": np.int64, "n_chars": np.int64,
                 "rnk": np.int64})


SQL_QNORM = """
WITH r AS (SELECT doc_id, source, n_chars,
                  ROW_NUMBER() OVER (PARTITION BY source
                                     ORDER BY n_chars, doc_id)
                    AS rnk
           FROM documents),
m AS (SELECT rnk, SUM(n_chars) AS s, COUNT(*) AS c
      FROM r GROUP BY 1)
SELECT r.doc_id, r.source, r.n_chars, CAST(r.rnk AS BIGINT) AS rnk,
       ROUND(CAST(m.s AS DOUBLE) / CAST(m.c AS DOUBLE), 6) AS qnorm
FROM r JOIN m USING (rnk) ORDER BY r.doc_id
"""


_BOOT_B = 32
_BOOT_SEED = 0xC2B2AE3D27D4EB4F | 1
# Poisson(1) inverse-CDF thresholds on the u64 hash, precomputed
# ONCE as integer constants shared verbatim with the twin: count =
# #(thresholds <= h).  P(0)=e⁻¹, P(≤1)=2e⁻¹, P(≤2)=2.5e⁻¹ ...
_POIS_CDF = [0.36787944117144233, 0.7357588823428847,
             0.9196986029286058, 0.9810118431238462,
             0.9963401531726563]
_POIS_THRESH = [int(p * (1 << 64)) for p in _POIS_CDF]


def q_poisson_bootstrap_lengths(sf_dir: str):
    """Poisson bootstrap standard error of the mean document length
    — the streaming-friendly bootstrap (Chamandy et al., Google's
    large-scale variant): replicate multiplicities are Poisson(1)
    draws per (doc, replicate), realized here as deterministic
    mod-2⁶⁴ hash positions against 5 precomputed inverse-CDF integer
    thresholds (shared verbatim with the twin — the multiplicity is
    a pure integer comparison count).  All 32 replicate (Σw·len, Σw)
    pairs fold as exact ints in ONE pass; replicate means and their
    SD around the true mean are the mirrored finish."""
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    seeds = (np.uint64(_BOOT_SEED)
             * (np.arange(1, _BOOT_B + 1, dtype=np.uint64)
                * np.uint64(2) + np.uint64(1)))
    thr = np.array(_POIS_THRESH, dtype=np.uint64)

    def part(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64) + np.uint64(1)
        ln = t["n_chars"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cols = {"_g": pa.array([0]),
                "n": pa.array([t.num_rows]),
                "s": pa.array([int(ln.sum())])}
        for j in range(_BOOT_B):
            h = did * seeds[j]
            w = (h[:, None] >= thr[None, :]).sum(axis=1) \
                .astype(np.int64)
            cols[f"w{j}"] = pa.array([int(w.sum())])
            cols[f"ws{j}"] = pa.array([int((w * ln).sum())])
        return pa.table(cols)

    aggs = [Sum("n", alias_name="n"), Sum("s", alias_name="s")]
    for j in range(_BOOT_B):
        aggs += [Sum(f"w{j}", alias_name=f"w{j}"),
                 Sum(f"ws{j}", alias_name=f"ws{j}")]
    agg = relational.ds_to_table(
        docs.map_batches(part, batch_format="pyarrow")
        .groupby("_g").aggregate(*aggs)
    ).to_pandas()
    n = int(agg["n"].iloc[0])
    s = int(agg["s"].iloc[0])
    mean = float(s) / float(n)
    dev = 0.0
    for j in range(_BOOT_B):
        w = int(agg[f"w{j}"].iloc[0])
        ws = int(agg[f"ws{j}"].iloc[0])
        if w > 0:
            m = float(ws) / float(w)
            dev += (m - mean) * (m - mean)
    se = math.sqrt(dev / float(_BOOT_B))
    return pd.DataFrame([{
        "n_docs": n, "mean_len": float(np.round(mean, 6)),
        "b_replicates": _BOOT_B,
        "boot_se": float(np.round(se, 6))}]).astype({
            "n_docs": np.int64, "b_replicates": np.int64})


def _sql_poisson_bootstrap() -> str:
    thr = ", ".join(str(t) for t in _POIS_THRESH)
    reps = []
    for j in range(_BOOT_B):
        # pure-python mod-2^64 (numpy scalar overflow would warn)
        seed = (_BOOT_SEED * (2 * (j + 1) + 1)) % (1 << 64)
        reps.append(f"""
  SELECT {j} AS rep,
         SUM(w) AS w, SUM(w * n_chars) AS ws
  FROM (SELECT n_chars,
               (SELECT COUNT(*) FROM th
                WHERE ((CAST(doc_id AS HUGEINT) + 1) * {seed})
                      % 18446744073709551616 >= th.t) AS w
        FROM documents)""")
    reps_sql = "\nUNION ALL\n".join(reps)
    return f"""
WITH th AS (SELECT unnest([{thr}]) AS t),
base AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
                CAST(SUM(n_chars) AS BIGINT) AS s FROM documents),
r AS ({reps_sql}),
m AS (SELECT base.n, base.s,
             CAST(base.s AS DOUBLE) / CAST(base.n AS DOUBLE)
               AS mean FROM base),
dev AS (SELECT SUM(CASE WHEN r.w > 0
                   THEN (CAST(r.ws AS DOUBLE) / CAST(r.w AS DOUBLE)
                         - m.mean)
                        * (CAST(r.ws AS DOUBLE) / CAST(r.w AS DOUBLE)
                           - m.mean)
                   ELSE 0.0 END) AS dv
        FROM r, m)
SELECT m.n AS n_docs, ROUND(m.mean, 6) AS mean_len,
       CAST({_BOOT_B} AS BIGINT) AS b_replicates,
       ROUND(SQRT(dev.dv / {float(_BOOT_B)}), 6) AS boot_se
FROM m, dev
"""


def _rater3_stats(sf_dir: str) -> dict:
    """Shared three-annotator panel fold for the inter-rater ops:
    r1 = the LangId classifier, r2 = the true label, r3 = a
    length-biased weak annotator (defaults to 'en' under 200 chars,
    else copies the classifier) — the realistic lazy-labeler failure
    mode.  ONE distributed actor-pool pass collapses each batch to the
    category-count partials plus five scalar counters (per-item
    agreement-pattern sum S, the three judges' correct totals, ΣL²);
    nothing per-doc ever reaches the driver, so the fold is
    corpus-size-independent."""
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        out = text.LangId()(batch)
        short = out["text"].str.len().to_numpy() < 200
        r1 = out["lang_pred"].to_numpy(dtype=object)
        r2 = out["lang"].to_numpy(dtype=object)
        r3 = np.where(short, "en", r1)
        eq12, eq13, eq23 = r1 == r2, r1 == r3, r2 == r3
        s_doc = np.where(eq12 & eq23, 9,
                         np.where(eq12 | eq13 | eq23, 5, 3))
        x1 = eq12.astype(np.int64)
        x2 = eq23.astype(np.int64)          # weak rater correct
        x3 = (r2 == "en").astype(np.int64)  # majority baseline
        L = x1 + x2 + x3
        cat = pd.concat([pd.Series(r1), pd.Series(r2),
                         pd.Series(r3)]).value_counts()
        rows = [{"cat": c, "c": int(v), "n": 0, "s": 0, "g1": 0,
                 "g2": 0, "g3": 0, "lsq": 0}
                for c, v in cat.items()]
        rows.append({"cat": "_", "c": 0, "n": len(out),
                     "s": int(s_doc.sum()), "g1": int(x1.sum()),
                     "g2": int(x2.sum()), "g3": int(x3.sum()),
                     "lsq": int((L * L).sum())})
        return pd.DataFrame(rows)

    agg = relational.ds_to_table(
        docs.map_batches(partial, batch_format="pandas",
                         concurrency=2)
        .groupby("cat").aggregate(
            Sum("c", alias_name="c"), Sum("n", alias_name="n"),
            Sum("s", alias_name="s"), Sum("g1", alias_name="g1"),
            Sum("g2", alias_name="g2"), Sum("g3", alias_name="g3"),
            Sum("lsq", alias_name="lsq"))).to_pandas()
    stats = agg[agg["cat"] == "_"].iloc[0]
    cats = agg[agg["cat"] != "_"]
    return {"N": int(stats["n"]), "S": int(stats["s"]),
            "g1": int(stats["g1"]), "g2": int(stats["g2"]),
            "g3": int(stats["g3"]), "lsq": int(stats["lsq"]),
            "tsq": sum(int(c) ** 2 for c in cats["c"])}


def _pred3_sql_base() -> str:
    """SQL twin of ``_rater3_frame`` — extends the shared langid pred
    body with text length so the weak rater is expressible."""
    body = _langid_pred_sql_body()
    # the shared body selects lang + counts from documents; rebuild with
    # length(text) carried through
    return body.replace(
        "scored AS (\n  SELECT lang,",
        "scored AS (\n  SELECT lang, length(text) AS tl,").replace(
        "pred AS (\n  SELECT lang,",
        "pred AS (\n  SELECT lang, tl,")


def q_fleiss_kappa_langid(sf_dir: str):
    """Fleiss' κ over the three-annotator langid panel — the standard
    many-raters chance-corrected agreement (Cohen's κ only does two).
    With n = 3 raters the per-item agreement is a pure pattern count
    (all-equal → Σn²ᵢₖ = 9, one pair → 5, none → 3), so
    P̄ = (S − 3N)/(6N) and P̄ₑ = ΣT²ₖ/(9N²) are exact-integer ratios;
    κ = (P̄ − P̄ₑ)/(1 − P̄ₑ) spends the mirrored float ops."""
    st = _rater3_stats(sf_dir)
    N, S, tsq = st["N"], st["S"], st["tsq"]
    po = float(S - 3 * N) / float(6 * N)
    pe = float(tsq) / float(9 * N * N)
    kappa = (po - pe) / (1.0 - pe)
    return pd.DataFrame([{
        "n_docs": N, "s_sum": S, "po": np.round(po, 6),
        "pe": np.round(pe, 6), "kappa": np.round(kappa, 6)}]) \
        .astype({"n_docs": np.int64, "s_sum": np.int64})


def _sql_fleiss() -> str:
    return f"""
WITH {_pred3_sql_base().lstrip()},
base AS (SELECT lang_pred AS r1, lang AS r2,
                CASE WHEN tl < 200 THEN 'en' ELSE lang_pred END AS r3
         FROM pred),
s AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(CASE WHEN r1 = r2 AND r2 = r3 THEN 9
                           WHEN r1 = r2 OR r1 = r3 OR r2 = r3 THEN 5
                           ELSE 3 END) AS BIGINT) AS ssum
      FROM base),
t AS (SELECT cat, CAST(COUNT(*) AS BIGINT) AS c FROM (
        SELECT r1 AS cat FROM base
        UNION ALL SELECT r2 FROM base
        UNION ALL SELECT r3 FROM base) GROUP BY 1),
tt AS (SELECT SUM(CAST(c AS HUGEINT) * c) AS tsq FROM t),
f AS (SELECT n, ssum,
             CAST(ssum - 3 * n AS DOUBLE) / CAST(6 * n AS DOUBLE)
               AS po,
             CAST(tsq AS DOUBLE) / CAST(9 * n * n AS DOUBLE) AS pe
      FROM s, tt)
SELECT n AS n_docs, ssum AS s_sum, ROUND(po, 6) AS po,
       ROUND(pe, 6) AS pe,
       ROUND((po - pe) / (1 - pe), 6) AS kappa
FROM f
"""


def q_krippendorff_alpha_langid(sf_dir: str):
    """Krippendorff's α (nominal metric, complete data) over the same
    three-annotator panel — content analysis' canonical reliability
    number, distinct from Fleiss in pooling the margins across raters
    and carrying the small-sample T−1 correction:
    D_o = (9N − S)/(6N),  D_e = (T² − ΣT²ₖ)/(T(T−1)) with T = 3N,
    α = 1 − D_o/D_e.  Same exact-integer ingredients, different
    inference — a panel that Fleiss flatters and α penalizes (or vice
    versa) is the classic textbook comparison."""
    st = _rater3_stats(sf_dir)
    N, S, tsq = st["N"], st["S"], st["tsq"]
    T = 3 * N
    do = float(9 * N - S) / float(6 * N)
    de = float(T * T - tsq) / float(T * (T - 1))
    alpha = 1.0 - do / de
    return pd.DataFrame([{
        "n_docs": N, "d_obs": np.round(do, 6),
        "d_exp": np.round(de, 6),
        "alpha": np.round(alpha, 6)}]).astype({"n_docs": np.int64})


def _sql_krippendorff() -> str:
    return f"""
WITH {_pred3_sql_base().lstrip()},
base AS (SELECT lang_pred AS r1, lang AS r2,
                CASE WHEN tl < 200 THEN 'en' ELSE lang_pred END AS r3
         FROM pred),
s AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(CASE WHEN r1 = r2 AND r2 = r3 THEN 9
                           WHEN r1 = r2 OR r1 = r3 OR r2 = r3 THEN 5
                           ELSE 3 END) AS BIGINT) AS ssum
      FROM base),
t AS (SELECT cat, CAST(COUNT(*) AS BIGINT) AS c FROM (
        SELECT r1 AS cat FROM base
        UNION ALL SELECT r2 FROM base
        UNION ALL SELECT r3 FROM base) GROUP BY 1),
tt AS (SELECT SUM(CAST(c AS HUGEINT) * c) AS tsq FROM t),
f AS (SELECT n,
             CAST(9 * n - ssum AS DOUBLE) / CAST(6 * n AS DOUBLE)
               AS do_,
             CAST(9 * CAST(n AS HUGEINT) * n - tsq AS DOUBLE)
               / CAST(3 * CAST(n AS HUGEINT) * (3 * n - 1) AS DOUBLE)
               AS de_
      FROM s, tt)
SELECT n AS n_docs, ROUND(do_, 6) AS d_obs, ROUND(de_, 6) AS d_exp,
       ROUND(1 - do_ / de_, 6) AS alpha
FROM f
"""


def q_cochran_q_langid(sf_dir: str):
    """Cochran's Q on the three langid judges' per-doc CORRECTNESS —
    the k-related-binary-treatments test (do the classifiers differ in
    accuracy beyond chance?): judges = the LangId classifier, the
    length-biased weak variant, and the always-'en' majority baseline.
    Q = 2·(3ΣG²ⱼ − T²)/(3T − ΣL²ᵢ) is ONE mirrored division of two
    exact integers (G = per-judge correct totals, L = per-doc row
    sums) — the whole test is a five-counter distributed fold."""
    st = _rater3_stats(sf_dir)
    N = st["N"]
    g1, g2, g3, lsq = st["g1"], st["g2"], st["g3"], st["lsq"]
    T = g1 + g2 + g3
    q = float(2 * (3 * (g1 * g1 + g2 * g2 + g3 * g3) - T * T)) \
        / float(3 * T - lsq)
    return pd.DataFrame([{
        "n_docs": N, "g_langid": g1, "g_weak": g2, "g_majority": g3,
        "q_cochran": np.round(q, 6)}]).astype({
            "n_docs": np.int64, "g_langid": np.int64,
            "g_weak": np.int64, "g_majority": np.int64})


def _sql_cochran_q() -> str:
    return f"""
WITH {_pred3_sql_base().lstrip()},
base AS (SELECT CASE WHEN lang_pred = lang THEN 1 ELSE 0 END AS x1,
                CASE WHEN (CASE WHEN tl < 200 THEN 'en'
                           ELSE lang_pred END) = lang
                     THEN 1 ELSE 0 END AS x2,
                CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS x3
         FROM pred),
agg AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(x1) AS BIGINT) AS g1,
               CAST(SUM(x2) AS BIGINT) AS g2,
               CAST(SUM(x3) AS BIGINT) AS g3,
               CAST(SUM((x1 + x2 + x3) * (x1 + x2 + x3)) AS BIGINT)
                 AS lsq
        FROM base)
SELECT n AS n_docs, g1 AS g_langid, g2 AS g_weak, g3 AS g_majority,
       ROUND(CAST(2 * (3 * (CAST(g1 AS HUGEINT) * g1
                            + CAST(g2 AS HUGEINT) * g2
                            + CAST(g3 AS HUGEINT) * g3)
                       - CAST(g1 + g2 + g3 AS HUGEINT)
                         * (g1 + g2 + g3)) AS DOUBLE)
             / CAST(3 * (g1 + g2 + g3) - lsq AS DOUBLE), 6)
         AS q_cochran
FROM agg
"""


def q_mattr_lexical_diversity(sf_dir: str):
    """MATTR (moving-average type-token ratio, window 50) per doc —
    the length-robust lexical diversity metric (plain TTR collapses
    as docs grow; MATTR's sliding window removes the length bias).
    The window-distinct sum is computed WITHOUT per-window scans via
    the previous-occurrence identity: token i counts toward window s
    iff prev(i) < s ≤ i, so Σ_w distinct_w = Σ_i |[max(lo_i,
    prev_i+1), hi_i]| — three vectorized clamps per token.  The sum
    is an exact integer; MATTR = Σ/(w_eff·n_windows) is ONE mirrored
    division (w_eff = min(50, n_tokens) handles short docs as a
    single full-width window)."""
    import re as _re
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    ws = _re.compile(r"\s+")

    def per_doc(batch: pd.DataFrame) -> pd.DataFrame:
        rows = {"doc_id": [], "n_tokens": [], "n_windows": [],
                "sum_distinct": [], "mattr": []}
        for did, txt in zip(batch["doc_id"], batch["text"]):
            toks = [t for t in ws.split(txt) if t]
            n = len(toks)
            if n == 0:
                continue
            codes = pd.factorize(np.array(toks, dtype=object))[0]
            prev = np.full(n, -1, dtype=np.int64)
            last = {}
            for i, c in enumerate(codes):
                if c in last:
                    prev[i] = last[c]
                last[c] = i
            if n <= 50:
                nw, weff = 1, n
                sd = int((prev < 0).sum())
            else:
                nw, weff = n - 49, 50
                i = np.arange(n)
                lo = np.maximum(0, i - 49)
                hi = np.minimum(i, nw - 1)
                start = np.maximum(lo, prev + 1)
                sd = int(np.maximum(0, hi - start + 1).sum())
            rows["doc_id"].append(did)
            rows["n_tokens"].append(n)
            rows["n_windows"].append(nw)
            rows["sum_distinct"].append(sd)
            rows["mattr"].append(
                np.round(float(sd) / float(weff * nw), 6))
        return pd.DataFrame(rows)

    out = relational.ds_to_table(
        docs.map_batches(per_doc, batch_format="pandas",
                         concurrency=2)).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True).astype({
        "doc_id": np.int64, "n_tokens": np.int64,
        "n_windows": np.int64, "sum_distinct": np.int64})


SQL_MATTR = r"""
WITH raw AS (SELECT doc_id, string_split_regex(text, '\s+') AS l
             FROM documents),
mx AS (SELECT CAST(MAX(len(l)) AS INT) AS m FROM raw),
ser AS (SELECT unnest(generate_series(1, (SELECT m FROM mx))) AS i),
tok0 AS (SELECT doc_id, l[CAST(ser.i AS INT)] AS tok, ser.i
         FROM raw JOIN ser ON ser.i <= len(l)),
tok AS (SELECT doc_id, tok,
               ROW_NUMBER() OVER (PARTITION BY doc_id
                                  ORDER BY i) AS pos
        FROM tok0 WHERE tok <> ''),
n AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n FROM tok
      GROUP BY 1),
longd AS (SELECT doc_id, n FROM n WHERE n > 50),
w AS (SELECT l.doc_id, s.i AS s
      FROM longd l JOIN ser s ON s.i <= l.n - 49),
wd AS (SELECT w.doc_id, w.s, COUNT(DISTINCT t.tok) AS d
       FROM w JOIN tok t ON t.doc_id = w.doc_id
                        AND t.pos BETWEEN w.s AND w.s + 49
       GROUP BY 1, 2),
longs AS (SELECT doc_id, CAST(SUM(d) AS BIGINT) AS sd,
                 CAST(COUNT(*) AS BIGINT) AS nw
          FROM wd GROUP BY 1),
shorts AS (SELECT t.doc_id,
                  CAST(COUNT(DISTINCT t.tok) AS BIGINT) AS sd
           FROM tok t JOIN n ON n.doc_id = t.doc_id
           WHERE n.n <= 50 GROUP BY 1)
SELECT n.doc_id, n.n AS n_tokens,
       COALESCE(l.nw, 1) AS n_windows,
       COALESCE(l.sd, s.sd) AS sum_distinct,
       ROUND(CAST(COALESCE(l.sd, s.sd) AS DOUBLE)
             / CAST(CASE WHEN n.n <= 50 THEN n.n
                    ELSE 50 * l.nw END AS DOUBLE), 6) AS mattr
FROM n LEFT JOIN longs l ON l.doc_id = n.doc_id
LEFT JOIN shorts s ON s.doc_id = n.doc_id
ORDER BY n.doc_id
"""


_APSP_CACHE: dict = {}


def _allpairs_bfs_stats(sf_dir: str) -> pd.DataFrame:
    """Exact single-source BFS stats from EVERY node of the symmetrized
    links graph — the embarrassingly-parallel all-pairs layer under
    the diameter and closeness ops: the CSR adjacency broadcasts once
    via ray.put, sources fan out across the cluster in batches, and
    each task returns only (src, ecc, sum_dist, n_reached).  Memoized
    per sf_dir so the two consumers share one distributed pass.  At
    100× swap the per-source loop for the bucketed BSP frontier the
    bfs_hops op uses, seeded per source block."""
    key = ("apsp", sf_dir)
    if key in _APSP_CACHE:
        return _APSP_CACHE[key]
    edges, n = _synthetic_links(sf_dir)
    from ...stages.graph_ops import _normalize_undirected
    und = relational.ds_to_table(
        _normalize_undirected(edges, "src", "dst"))
    a = und["ea"].to_numpy(zero_copy_only=False).astype(np.int64)
    b = und["eb"].to_numpy(zero_copy_only=False).astype(np.int64)
    src = np.concatenate([a, b])
    dst = np.concatenate([b, a])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    indptr = np.searchsorted(src, np.arange(n + 1))
    csr_ref = ray.put((indptr, dst, n))

    def bfs_batch(t: pa.Table) -> pa.Table:
        from ...stages.relational import worker_cached
        ip, nb, nn = worker_cached(("apsp_csr", csr_ref),
                                   lambda: ray.get(csr_ref))
        rows = {"src": [], "ecc": [], "sum_dist": [],
                "n_reached": []}
        for s in t["doc_id"].to_pylist():
            dist = np.full(nn, -1, dtype=np.int64)
            dist[s] = 0
            frontier = np.array([s], dtype=np.int64)
            d = 0
            while len(frontier):
                d += 1
                nxt = np.concatenate(
                    [nb[ip[v]:ip[v + 1]] for v in frontier]) \
                    if len(frontier) else frontier
                nxt = np.unique(nxt)
                nxt = nxt[dist[nxt] < 0]
                dist[nxt] = d
                frontier = nxt
            reach = dist >= 0
            rows["src"].append(s)
            rows["ecc"].append(int(dist[reach].max()))
            rows["sum_dist"].append(int(dist[reach].sum()))
            rows["n_reached"].append(int(reach.sum()))
        return pa.table({k: pa.array(v, type=pa.int64())
                         for k, v in rows.items()})

    out = relational.ds_to_table(
        _read(sf_dir, "documents", ["doc_id"])
        .map_batches(bfs_batch, batch_format="pyarrow")
    ).to_pandas().sort_values("src").reset_index(drop=True)
    _APSP_CACHE[key] = out
    return out


def q_graph_diameter_links(sf_dir: str):
    """EXACT graph diameter / radius / center of the links graph via
    the distributed all-pairs BFS fan-out — the numbers the ANF
    effective-diameter sketch only approximates.  Every statistic is
    an integer (max/min eccentricity, center and periphery counts);
    nothing to quantize.  The recursive-CTE twin bounds depth at 12
    (true diameter is 10 here); the Ray side is unbounded."""
    st = _allpairs_bfs_stats(sf_dir)
    ecc = st["ecc"].to_numpy(np.int64)
    dia = int(ecc.max())
    rad = int(ecc.min())
    return pd.DataFrame([{
        "n_nodes": len(st), "diameter": dia, "radius": rad,
        "n_center": int((ecc == rad).sum()),
        "n_periphery": int((ecc == dia).sum())}]).astype(np.int64)


SQL_GRAPH_DIAMETER = f"""
WITH RECURSIVE {_SQL_LINKS_CTE.strip()},
nodes AS (SELECT DISTINCT u AS node FROM sym),
r AS (SELECT node AS src, node AS v, 0 AS d FROM nodes
      UNION
      SELECT r.src, s.v, r.d + 1 FROM r JOIN sym s ON s.u = r.v
      WHERE r.d < 12),
dist AS (SELECT src, v, MIN(d) AS d FROM r GROUP BY 1, 2),
ecc AS (SELECT src, CAST(MAX(d) AS BIGINT) AS ecc
        FROM dist GROUP BY 1),
agg AS (SELECT CAST(COUNT(*) AS BIGINT) AS n_nodes,
               MAX(ecc) AS dia, MIN(ecc) AS rad FROM ecc)
SELECT n_nodes, dia AS diameter, rad AS radius,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM ecc, agg
        WHERE ecc = rad) AS n_center,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM ecc, agg
        WHERE ecc = dia) AS n_periphery
FROM agg
"""


def q_closeness_centrality_links(sf_dir: str):
    """Wasserman–Faust closeness centrality per node —
    C(v) = (r−1)²/((n−1)·Σd) with r = reached count — the
    disconnected-safe normalization, sharing the memoized all-pairs
    BFS pass with the diameter op.  Σd and r are exact integers; one
    mirrored division per node.  Harmonic centrality (already in the
    registry) ranks by Σ1/d; closeness ranks by 1/Σd — the two
    disagree exactly when components differ, which is the point of
    carrying both."""
    st = _allpairs_bfs_stats(sf_dir)
    n = len(st)
    r = st["n_reached"].to_numpy(np.int64)
    sd = st["sum_dist"].to_numpy(np.int64)
    close = np.where(
        sd > 0,
        ((r - 1).astype(np.float64) * (r - 1))
        / ((n - 1) * sd).astype(np.float64), 0.0)
    return pd.DataFrame({
        "node": st["src"].astype(np.int64),
        "n_reached": r, "sum_dist": sd,
        "closeness": np.round(close, 6)})


SQL_CLOSENESS = f"""
WITH RECURSIVE {_SQL_LINKS_CTE.strip()},
nodes AS (SELECT DISTINCT u AS node FROM sym),
r AS (SELECT node AS src, node AS v, 0 AS d FROM nodes
      UNION
      SELECT r.src, s.v, r.d + 1 FROM r JOIN sym s ON s.u = r.v
      WHERE r.d < 12),
dist AS (SELECT src, v, MIN(d) AS d FROM r GROUP BY 1, 2),
st AS (SELECT src, CAST(COUNT(*) AS BIGINT) AS r,
              CAST(SUM(d) AS BIGINT) AS sd FROM dist GROUP BY 1),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM nodes)
SELECT src AS node, r AS n_reached, sd AS sum_dist,
       CASE WHEN sd > 0
            THEN ROUND(CAST((r - 1) * (r - 1) AS DOUBLE)
                       / CAST((n.n - 1) * sd AS DOUBLE), 6)
            ELSE 0.0 END AS closeness
FROM st, n ORDER BY src
"""


def q_resource_allocation_links(sf_dir: str):
    """Resource-allocation link prediction — Zhou/Lü/Zhang's refinement
    of Adamic–Adar: ra(u,v) = Σ_{w∈CN} 1/deg(w) (plain reciprocal, no
    log), which this engine can fold EXACTLY: each pivot contributes
    the integer ⌊10⁹/deg⌋, so scores shuffle as int64, the top-25
    ordering is an INTEGER sort (no 1-ulp wobble to round away —
    sharper than the AA op's 6dp guard), and one mirrored /1e9
    division lands the display value.  Same pivot-enumeration /
    non-edge-filter machinery as the CN and AA ops."""
    from ray.data.aggregate import Sum
    from ...stages.graph_ops import _normalize_undirected
    from ...stages.relational import (_pair_index, stable_bucket,
                                     worker_cached)
    edges, n = _synthetic_links(sf_dir)
    und = _normalize_undirected(edges, "src", "dst").materialize()

    def deg_partial(t: pa.Table) -> pa.Table:
        nn = np.concatenate(
            [t["ea"].to_numpy(zero_copy_only=False),
             t["eb"].to_numpy(zero_copy_only=False)]) \
            .astype(np.int64)
        uniq, cnt = np.unique(nn, return_counts=True)
        return pa.table({"node": pa.array(uniq),
                         "pn": pa.array(cnt.astype(np.int64))})

    deg = relational.ds_to_table(
        und.map_batches(deg_partial, batch_format="pyarrow")
        .groupby("node").aggregate(Sum("pn", alias_name="deg")))
    ids = deg["node"].to_numpy(zero_copy_only=False).astype(np.int64)
    dv = deg["deg"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(ids)
    deg_ref = ray.put((ids[order], dv[order]))

    und_t = relational.ds_to_table(und)
    edge_keys = np.sort(
        und_t["ea"].to_numpy(zero_copy_only=False).astype(np.int64)
        * (1 << 32)
        + und_t["eb"].to_numpy(zero_copy_only=False)
        .astype(np.int64))
    ek_ref = ray.put(edge_keys)

    def tag(t: pa.Table) -> pa.Table:
        g = _sym_adjacency(t).group_by(["pivot", "leaf"]) \
            .aggregate([])
        return g.append_column(
            "_bucket", pa.array(stable_bucket(g["pivot"], 64)))

    def explode(df: pd.DataFrame) -> pa.Table:
        _ids, _dv = worker_cached(("ra_deg", deg_ref),
                                  lambda: ray.get(deg_ref))
        df = df.drop_duplicates(["pivot", "leaf"]) \
            .sort_values(["pivot", "leaf"])
        k = df.groupby("pivot", sort=False).size().to_numpy()
        vals = df["leaf"].to_numpy()
        piv = df["pivot"].to_numpy()
        off = np.zeros(len(k) + 1, dtype=np.int64)
        np.cumsum(k, out=off[1:])
        n_pairs = k * (k - 1) // 2
        key_rep = np.repeat(np.arange(len(k)), n_pairs)
        p = _pair_index(n_pairs)
        a = vals[off[key_rep] + p[0]]
        b = vals[off[key_rep] + p[1]]
        dp = _dv[np.searchsorted(_ids, piv[off[key_rep]])]
        # the pivot's EXACT integer contribution ⌊1e9/deg⌋
        g = pd.DataFrame({"a": a, "b": b, "cn": 1,
                          "ra9": 1_000_000_000 // dp}) \
            .groupby(["a", "b"], sort=False).sum().reset_index()
        g["_pb"] = (stable_bucket(pa.array(g["a"]), 64)
                    .astype(np.int64) * 31
                    + stable_bucket(pa.array(g["b"]), 64)) % 64
        return pa.Table.from_pandas(g, preserve_index=False)

    def merge(df: pd.DataFrame) -> pa.Table:
        g = df.groupby(["a", "b"], sort=False) \
            .agg(cn=("cn", "sum"), ra9=("ra9", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    def drop_edges(t: pa.Table) -> pa.Table:
        ek = worker_cached(("ra_edges", ek_ref),
                           lambda: ray.get(ek_ref))
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        key = a * (1 << 32) + b
        pos = np.minimum(np.searchsorted(ek, key), len(ek) - 1)
        out = t.filter(pa.array(ek[pos] != key))
        return out.sort_by([("ra9", "descending"),
                            ("a", "ascending"),
                            ("b", "ascending")]).slice(0, 25)

    pruned = relational.ds_to_table(
        und.map_batches(tag, batch_format="pyarrow")
        .groupby("_bucket").map_groups(explode,
                                       batch_format="pandas")
        .groupby("_pb").map_groups(merge, batch_format="pandas")
        .map_batches(drop_edges, batch_format="pyarrow"))
    top = pruned.sort_by([("ra9", "descending"), ("a", "ascending"),
                          ("b", "ascending")]).slice(0, 25) \
        .to_pandas()
    top["ra"] = (top["ra9"] / 1e9).round(6)
    return top[["a", "b", "cn", "ra9", "ra"]].astype(
        {"a": np.int64, "b": np.int64, "cn": np.int64,
         "ra9": np.int64})


SQL_RESOURCE_ALLOC = f"""
WITH {_SQL_LINKS_CTE.strip()},
deg AS (SELECT u AS node, CAST(COUNT(*) AS BIGINT) AS deg
        FROM sym GROUP BY 1),
cnd AS (SELECT e1.v AS a, e2.v AS b,
               CAST(COUNT(*) AS BIGINT) AS cn,
               CAST(SUM(1000000000 // d.deg) AS BIGINT) AS ra9
        FROM sym e1 JOIN sym e2 ON e1.u = e2.u AND e1.v < e2.v
        JOIN deg d ON d.node = e1.u
        GROUP BY 1, 2),
nonedge AS (SELECT cnd.* FROM cnd
            LEFT JOIN und ON cnd.a = und.a AND cnd.b = und.b
            WHERE und.a IS NULL)
SELECT a, b, cn, ra9, ROUND(ra9 / 1e9, 6) AS ra FROM nonedge
ORDER BY ra9 DESC, a, b LIMIT 25
"""


def q_ngram_coverage_curve(sf_dir: str):
    """Vocabulary coverage curve — what fraction of all token
    OCCURRENCES the top-k types cover (k = 10/100/1000), the number
    that decides tokenizer vocab size and stopword-list length.
    Counts fold through the word-count reduce; ranking is the
    deterministic (count DESC, word ASC) so ties at the k-th place
    cannot float; covered/total are exact integers with one mirrored
    division per row."""
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["text"])

    def wc(t: pa.Table) -> pa.Table:
        w = pc.list_flatten(pc.split_pattern(t["text"],
                                             pattern=" "))
        arr = w.to_pandas().value_counts()
        return pa.Table.from_pandas(
            pd.DataFrame({"w": arr.index, "c": arr.to_numpy(
                np.int64)}), preserve_index=False)

    counts = relational.ds_to_table(
        docs.map_batches(wc, batch_format="pyarrow")
        .groupby("w").aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    counts = counts.sort_values(["c", "w"],
                                ascending=[False, True]) \
        .reset_index(drop=True)
    total = int(counts["c"].sum())
    cum = counts["c"].cumsum()
    rows = []
    for k in (10, 100, 1000):
        covered = int(cum.iloc[min(k, len(cum)) - 1]) \
            if len(cum) else 0
        rows.append({"k": k, "covered": covered, "total": total,
                     "coverage": np.round(
                         float(covered) / float(total), 6)})
    return pd.DataFrame(rows).astype({
        "k": np.int64, "covered": np.int64, "total": np.int64})


SQL_NGRAM_COVERAGE = """
WITH w AS (SELECT unnest(string_split(text, ' ')) AS w
           FROM documents),
c AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS c FROM w GROUP BY 1),
r AS (SELECT c, ROW_NUMBER() OVER (ORDER BY c DESC, w) AS rn
      FROM c),
t AS (SELECT SUM(c) AS total FROM c)
SELECT k.k,
       (SELECT CAST(SUM(c) AS BIGINT) FROM r
        WHERE rn <= k.k) AS covered,
       CAST(t.total AS BIGINT) AS total,
       ROUND(CAST((SELECT SUM(c) FROM r WHERE rn <= k.k) AS DOUBLE)
             / CAST(t.total AS DOUBLE), 6) AS coverage
FROM (SELECT unnest([10, 100, 1000]) AS k) k, t
ORDER BY k.k
"""


def q_heaps_law_fit(sf_dir: str):
    """Heaps'-law exponent fit V = K·T^β over the five vocabulary-
    growth checkpoints — the single number that extrapolates
    vocabulary size to a 100× corpus.  The logs of the exact
    checkpoint counts are NANO-QUANTIZED and the OLS on the quantized
    points is pure INTEGER algebra (n·Σxy−ΣxΣy over n·Σx²−(Σx)²), so
    both engines fit the same five lattice points exactly; β and
    ln K spend one mirrored division each."""
    ck = q_vocab_growth_checkpoints(sf_dir)
    qx = [int(np.floor(np.log(float(t)) * 1e9 + 0.5))
          for t in ck["n_tokens"]]
    qy = [int(np.floor(np.log(float(v)) * 1e9 + 0.5))
          for v in ck["n_vocab"]]
    n = len(qx)
    sx, sy = sum(qx), sum(qy)
    sxx = sum(x * x for x in qx)
    sxy = sum(x * y for x, y in zip(qx, qy))
    d = n * sxx - sx * sx
    beta = float(n * sxy - sx * sy) / float(d)
    lnk9 = float(sy * sxx - sx * sxy) / float(d)
    return pd.DataFrame([{
        "n_checkpoints": n, "beta": np.round(beta, 6),
        "ln_k": np.round(lnk9 / 1e9, 6)}]).astype({
            "n_checkpoints": np.int64})


SQL_HEAPS_FIT = """
WITH b AS (SELECT MIN(doc_id) AS lo,
                  MAX(doc_id) - MIN(doc_id) + 1 AS span
           FROM documents),
w AS (SELECT doc_id, unnest(string_split(text, ' ')) AS word
      FROM documents),
ck AS (SELECT k,
              (SELECT COUNT(*) FROM w, b
               WHERE doc_id < b.lo + (k * b.span + 4) // 5) AS t,
              (SELECT COUNT(DISTINCT word) FROM w, b
               WHERE doc_id < b.lo + (k * b.span + 4) // 5) AS v
       FROM (SELECT unnest(generate_series(1, 5)) AS k)),
q AS (SELECT CAST(FLOOR(LN(CAST(t AS DOUBLE)) * 1e9 + 0.5)
                  AS HUGEINT) AS qx,
             CAST(FLOOR(LN(CAST(v AS DOUBLE)) * 1e9 + 0.5)
                  AS HUGEINT) AS qy
      FROM ck),
s AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(qx) AS sx,
             SUM(qy) AS sy, SUM(qx * qx) AS sxx,
             SUM(qx * qy) AS sxy
      FROM q)
SELECT CAST(n AS BIGINT) AS n_checkpoints,
       ROUND(CAST(n * sxy - sx * sy AS DOUBLE)
             / CAST(n * sxx - sx * sx AS DOUBLE), 6) AS beta,
       ROUND(CAST(sy * sxx - sx * sxy AS DOUBLE)
             / CAST(n * sxx - sx * sx AS DOUBLE) / 1e9, 6) AS ln_k
FROM s
"""


def q_spiegelhalter_z_calibration(sf_dir: str):
    """Spiegelhalter's Z — is the shared logistic scorer CALIBRATED
    (do predicted probabilities match outcome frequencies), the
    complement of AUC's pure ranking view:
    Z = Σ(y−p)(1−2p) / √(Σ(1−2p)²p(1−p)).  Each doc's numerator and
    variance terms are computed in the identical sigmoid float chain
    as the scoring twin, NANO-QUANTIZED, and folded as int64; the
    final ratio spends the mirrored √ and division."""
    from ray.data.aggregate import Sum
    feats = _doc_features(sf_dir)

    def terms(t: pa.Table) -> pa.Table:
        x1 = t["x1"].to_numpy(zero_copy_only=False)
        x2 = t["x2"].to_numpy(zero_copy_only=False)
        y = t["label"].to_numpy(zero_copy_only=False)
        p = 1.0 / (1.0 + np.exp(-(0.25 + 0.8 * x1 - 0.5 * x2)))
        num = (y - p) * (1.0 - 2.0 * p)
        var = (1.0 - 2.0 * p) * (1.0 - 2.0 * p) * p * (1.0 - p)
        return pa.table({
            "_g": pa.array([0]),
            "n": pa.array([len(x1)]),
            "num9": pa.array([int(np.floor(num * 1e9 + 0.5)
                                  .astype(np.int64).sum())]),
            "var9": pa.array([int(np.floor(var * 1e9 + 0.5)
                                  .astype(np.int64).sum())])})

    m = relational.ds_to_table(
        feats.map_batches(terms, batch_format="pyarrow")
        .groupby("_g").aggregate(
            Sum("n", alias_name="n"), Sum("num9", alias_name="num9"),
            Sum("var9", alias_name="var9"))).to_pandas().iloc[0]
    n = int(m["n"])
    num9, var9 = int(m["num9"]), int(m["var9"])
    z = (num9 / 1e9) / float(np.sqrt(var9 / 1e9))
    return pd.DataFrame([{
        "n_docs": n, "num_e9": num9, "var_e9": var9,
        "z_spiegelhalter": np.round(z, 6)}]).astype({
            "n_docs": np.int64, "num_e9": np.int64,
            "var_e9": np.int64})


SQL_SPIEGELHALTER = """
WITH f AS (SELECT doc_id, n_chars / 1000.0 AS x1,
                  len(string_split(text, ' ')) / 100.0 AS x2,
                  CASE WHEN doc_id % 3 = 0 THEN 1.0 ELSE 0.0 END
                    AS y
           FROM documents),
p AS (SELECT y,
             1.0 / (1.0 + exp(-(0.25 + 0.8 * x1 - 0.5 * x2))) AS p
      FROM f),
t AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(CAST(FLOOR((y - p) * (1.0 - 2.0 * p) * 1e9
                                 + 0.5) AS BIGINT)) AS BIGINT)
               AS num9,
             CAST(SUM(CAST(FLOOR((1.0 - 2.0 * p) * (1.0 - 2.0 * p)
                                 * p * (1.0 - p) * 1e9 + 0.5)
                           AS BIGINT)) AS BIGINT) AS var9
      FROM p)
SELECT n AS n_docs, num9 AS num_e9, var9 AS var_e9,
       ROUND((num9 / 1e9) / SQRT(var9 / 1e9), 6) AS z_spiegelhalter
FROM t
"""


def _scored_ranked_frame(sf_dir: str) -> pd.DataFrame:
    """Shared ranked-retrieval panel: the logistic scorer's sigmoid
    over doc features, relevance = the shared doc_id%3 label, ranked
    by the 12-dp-QUANTIZED score (⌊p·10¹²+½⌋, doc_id tiebreak) — the
    raw sigmoid differs by 1 ulp between numpy and DuckDB's exp() on
    some inputs, which silently swapped a tied pair and moved bpref
    by one; quantized integer keys make the ranking engine-proof."""
    feats = _doc_features(sf_dir)

    def score(t: pa.Table) -> pa.Table:
        x1 = t["x1"].to_numpy(zero_copy_only=False)
        x2 = t["x2"].to_numpy(zero_copy_only=False)
        p = 1.0 / (1.0 + np.exp(-(0.25 + 0.8 * x1 - 0.5 * x2)))
        q = np.floor(p * 1e12 + 0.5).astype(np.int64)
        return pa.table({"doc_id": t["doc_id"],
                         "score_q": pa.array(q),
                         "rel": pa.array(t["label"].to_numpy(
                             zero_copy_only=False)
                             .astype(np.int64))})

    df = relational.ds_to_table(
        feats.map_batches(score, batch_format="pyarrow")
    ).to_pandas()
    return df.sort_values(["score_q", "doc_id"],
                          ascending=[False, True]) \
        .reset_index(drop=True)


SQL_RANKED_CTE = """
f AS (SELECT doc_id, n_chars / 1000.0 AS x1,
             len(string_split(text, ' ')) / 100.0 AS x2,
             CASE WHEN doc_id % 3 = 0 THEN 1 ELSE 0 END AS rel
      FROM documents),
rk AS (SELECT doc_id, rel,
              ROW_NUMBER() OVER (
                ORDER BY CAST(FLOOR(1.0 / (1.0 + exp(-(0.25
                  + 0.8 * x1 - 0.5 * x2))) * 1e12 + 0.5) AS BIGINT)
                  DESC, doc_id) AS rn
       FROM f)
"""


def q_eleven_point_pr(sf_dir: str):
    """TREC 11-point interpolated precision–recall curve of the
    logistic ranker — the classic retrieval summary (AP collapses it
    to one number; the curve shows WHERE the ranker dies): at each
    recall level r ∈ {0, 0.1, …, 1}, interpolated P = max precision
    at any rank with recall ≥ r.  Precision and recall at every rank
    are exact integer ratios; the recall-level threshold compare
    10·tp ≥ level·R is INTEGER, and only the reported precision
    divides (mirrored)."""
    df = _scored_ranked_frame(sf_dir)
    rel = df["rel"].to_numpy(np.int64)
    n = len(rel)
    tp = np.cumsum(rel)
    ranks = np.arange(1, n + 1)
    r_tot = int(rel.sum())
    # suffix max of precision (as exact fractions compared by
    # cross-multiplication would be ideal; float max of identical
    # divisions is association-free and mirrored)
    prec = tp.astype(np.float64) / ranks.astype(np.float64)
    suffmax = np.maximum.accumulate(prec[::-1])[::-1]
    rows = []
    for level in range(11):
        # first rank with 10·tp ≥ level·R  (integer compare)
        ok = 10 * tp >= level * r_tot
        if ok.any():
            idx = int(np.argmax(ok))
            p = float(suffmax[idx])
        else:
            p = 0.0
        rows.append({"recall_level": level / 10.0,
                     "interp_precision": np.round(p, 6)})
    return pd.DataFrame(rows)


SQL_ELEVEN_POINT = f"""
WITH {SQL_RANKED_CTE.strip()},
pr AS (SELECT rn, rel,
              SUM(rel) OVER (ORDER BY rn) AS tp,
              CAST(SUM(rel) OVER (ORDER BY rn) AS DOUBLE) / rn
                AS prec
       FROM rk),
sm AS (SELECT rn, tp,
              MAX(prec) OVER (ORDER BY rn DESC
                              ROWS BETWEEN UNBOUNDED PRECEDING
                              AND CURRENT ROW) AS suffmax
       FROM pr),
rt AS (SELECT SUM(rel) AS r FROM rk)
SELECT lv.level / 10.0 AS recall_level,
       ROUND(COALESCE((SELECT sm.suffmax FROM sm, rt
                       WHERE 10 * sm.tp >= lv.level * rt.r
                       ORDER BY sm.rn LIMIT 1), 0.0), 6)
         AS interp_precision
FROM (SELECT unnest(generate_series(0, 10)) AS level) lv
ORDER BY recall_level
"""


def q_r_precision(sf_dir: str):
    """R-precision of the logistic ranker — precision at rank
    R = #relevant, the single operating point where precision =
    recall by construction (the break-even the 11-point curve pivots
    around).  tp@R is an exact integer from the deterministic
    ranking; ONE mirrored division."""
    df = _scored_ranked_frame(sf_dir)
    rel = df["rel"].to_numpy(np.int64)
    r_tot = int(rel.sum())
    tp_at_r = int(rel[:r_tot].sum())
    return pd.DataFrame([{
        "n_docs": len(rel), "n_relevant": r_tot,
        "tp_at_r": tp_at_r,
        "r_precision": np.round(float(tp_at_r) / float(r_tot), 6)}]) \
        .astype({"n_docs": np.int64, "n_relevant": np.int64,
                 "tp_at_r": np.int64})


SQL_R_PRECISION = f"""
WITH {SQL_RANKED_CTE.strip()},
rt AS (SELECT CAST(SUM(rel) AS BIGINT) AS r FROM rk),
t AS (SELECT CAST(SUM(rel) AS BIGINT) AS tp
      FROM rk, rt WHERE rn <= rt.r)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM rk) AS n_docs,
       rt.r AS n_relevant, t.tp AS tp_at_r,
       ROUND(CAST(t.tp AS DOUBLE) / CAST(rt.r AS DOUBLE), 6)
         AS r_precision
FROM rt, t
"""


def q_bpref_doc_score(sf_dir: str):
    """bpref of the logistic ranker — the TREC measure built for
    INCOMPLETE judgments (it only looks at how many judged
    NON-relevant docs rank above each relevant one, so unjudged docs
    can't poison it): bpref = (1/R)·Σ_r (1 − n_above_r/min(R,N)).
    Clearing the common denominator makes the numerator
    Σ(minRN − min(n_above, minRN)) an exact integer; ONE mirrored
    division by R·minRN."""
    df = _scored_ranked_frame(sf_dir)
    rel = df["rel"].to_numpy(np.int64)
    r_tot = int(rel.sum())
    n_tot = len(rel) - r_tot
    m = min(r_tot, n_tot)
    nonrel_above = np.cumsum(1 - rel)
    contrib = m - np.minimum(nonrel_above[rel == 1], m)
    num = int(contrib.sum())
    return pd.DataFrame([{
        "n_relevant": r_tot, "n_nonrelevant": n_tot,
        "bpref_num": num,
        "bpref": np.round(float(num) / float(r_tot * m), 6)}]) \
        .astype({"n_relevant": np.int64, "n_nonrelevant": np.int64,
                 "bpref_num": np.int64})


SQL_BPREF = f"""
WITH {SQL_RANKED_CTE.strip()},
rt AS (SELECT CAST(SUM(rel) AS BIGINT) AS r,
              CAST(SUM(1 - rel) AS BIGINT) AS nn FROM rk),
na AS (SELECT rn, rel,
              SUM(1 - rel) OVER (ORDER BY rn) AS n_above
       FROM rk),
s AS (SELECT CAST(SUM(LEAST(rt.r, rt.nn)
                     - LEAST(na.n_above, LEAST(rt.r, rt.nn)))
                  AS BIGINT) AS num
      FROM na, rt WHERE na.rel = 1)
SELECT rt.r AS n_relevant, rt.nn AS n_nonrelevant,
       s.num AS bpref_num,
       ROUND(CAST(s.num AS DOUBLE)
             / CAST(rt.r * LEAST(rt.r, rt.nn) AS DOUBLE), 6)
         AS bpref
FROM rt, s
"""


def q_gini_vocab_frequencies(sf_dir: str):
    """Gini coefficient of the word-frequency distribution — the
    inequality view of Zipf (a slope says power law; the Gini says
    how much of the corpus the head owns, the complement of the
    coverage-curve op): with counts sorted ascending under the
    deterministic (count, word) order,
    G = (2Σi·cᵢ − (n+1)Σcᵢ) / (n·Σcᵢ) is exact integers over one
    mirrored division."""
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["text"])

    def wc(t: pa.Table) -> pa.Table:
        w = pc.list_flatten(pc.split_pattern(t["text"],
                                             pattern=" "))
        arr = w.to_pandas().value_counts()
        return pa.Table.from_pandas(
            pd.DataFrame({"w": arr.index, "c": arr.to_numpy(
                np.int64)}), preserve_index=False)

    counts = relational.ds_to_table(
        docs.map_batches(wc, batch_format="pyarrow")
        .groupby("w").aggregate(Sum("c", alias_name="c"))
    ).to_pandas().sort_values(["c", "w"]).reset_index(drop=True)
    c = counts["c"].to_numpy(np.int64).astype(object)
    n = len(c)
    tot = int(c.sum())
    wsum = int((np.arange(1, n + 1, dtype=np.int64)
                .astype(object) * c).sum())
    num = 2 * wsum - (n + 1) * tot
    return pd.DataFrame([{
        "n_types": n, "n_tokens": tot, "gini_num": num,
        "gini": np.round(float(num) / float(n * tot), 6)}]).astype({
            "n_types": np.int64, "n_tokens": np.int64,
            "gini_num": np.int64})


SQL_GINI_VOCAB = """
WITH w AS (SELECT unnest(string_split(text, ' ')) AS w
           FROM documents),
c AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS c FROM w GROUP BY 1),
r AS (SELECT c, ROW_NUMBER() OVER (ORDER BY c, w) AS i FROM c),
s AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n,
             SUM(CAST(c AS HUGEINT)) AS tot,
             SUM(CAST(i AS HUGEINT) * c) AS wsum
      FROM r)
SELECT CAST(n AS BIGINT) AS n_types, CAST(tot AS BIGINT)
         AS n_tokens,
       CAST(2 * wsum - (n + 1) * tot AS BIGINT) AS gini_num,
       ROUND(CAST(2 * wsum - (n + 1) * tot AS DOUBLE)
             / CAST(n * tot AS DOUBLE), 6) AS gini
FROM s
"""


def _degree_moments_links(sf_dir: str):
    """Shared degree-moment reduce over the symmetrized links graph:
    Σk, Σk², Σk³ and n — exact integers, one pass, feeding the
    epidemic-threshold / friendship-paradox / configuration-model
    family."""
    from ray.data.aggregate import Sum
    from ...stages.graph_ops import _normalize_undirected
    edges, n = _synthetic_links(sf_dir)
    und = _normalize_undirected(edges, "src", "dst")

    def deg_partial(t: pa.Table) -> pa.Table:
        nn = np.concatenate(
            [t["ea"].to_numpy(zero_copy_only=False),
             t["eb"].to_numpy(zero_copy_only=False)]) \
            .astype(np.int64)
        uniq, cnt = np.unique(nn, return_counts=True)
        return pa.table({"node": pa.array(uniq),
                         "pn": pa.array(cnt.astype(np.int64))})

    deg = relational.ds_to_table(
        und.map_batches(deg_partial, batch_format="pyarrow")
        .groupby("node").aggregate(Sum("pn", alias_name="deg"))
    ).to_pandas()
    k = deg["deg"].to_numpy(np.int64).astype(object)
    return {"n": len(k), "s1": int(k.sum()),
            "s2": int((k * k).sum()), "s3": int((k * k * k).sum())}


SQL_DEGREE_MOMENTS_CTE = f"""
{_SQL_LINKS_CTE.strip()},
deg AS (SELECT u AS node, CAST(COUNT(*) AS BIGINT) AS k
        FROM sym GROUP BY 1),
mo AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
              CAST(SUM(k) AS BIGINT) AS s1,
              CAST(SUM(CAST(k AS HUGEINT) * k) AS BIGINT) AS s2,
              CAST(SUM(CAST(k AS HUGEINT) * k * k) AS BIGINT) AS s3
       FROM deg)
"""


def q_epidemic_threshold_links(sf_dir: str):
    """Epidemic threshold of the links graph under the degree-based
    mean-field (Pastor-Satorras/Vespignani): λ_c = ⟨k⟩/⟨k²−k⟩ =
    Σk/(Σk²−Σk) — the number that says how infectious a worm (or a
    meme) must be before the topology sustains it; heavy-tailed
    graphs drive it toward ZERO, which is the whole scare.  Exact
    integer moments, one mirrored division, plus the integer-decided
    giant-component Molloy–Reed flag Σk² > 2Σk."""
    m = _degree_moments_links(sf_dir)
    lam = float(m["s1"]) / float(m["s2"] - m["s1"])
    return pd.DataFrame([{
        "n_nodes": m["n"], "sum_k": m["s1"], "sum_k2": m["s2"],
        "lambda_c": np.round(lam, 6),
        "molloy_reed_giant": m["s2"] > 2 * m["s1"]}]).astype({
            "n_nodes": np.int64, "sum_k": np.int64,
            "sum_k2": np.int64})


def _sql_epidemic() -> str:
    return f"""
WITH {SQL_DEGREE_MOMENTS_CTE.strip()}
SELECT n AS n_nodes, s1 AS sum_k, s2 AS sum_k2,
       ROUND(CAST(s1 AS DOUBLE) / CAST(s2 - s1 AS DOUBLE), 6)
         AS lambda_c,
       s2 > 2 * s1 AS molloy_reed_giant
FROM mo
"""


def q_friendship_paradox_links(sf_dir: str):
    """The friendship paradox, measured: your friends have more
    friends than you — mean neighbor degree ⟨k²⟩/⟨k⟩ vs mean degree
    ⟨k⟩, with the paradox GAP cleared to the exact integer
    n·Σk² − (Σk)² ≥ 0 (equality iff the graph is regular — the flag
    is arithmetic, not floating).  The sampling-bias lesson behind
    degree-weighted immunization and influencer overestimation."""
    m = _degree_moments_links(sf_dir)
    mean_k = float(m["s1"]) / float(m["n"])
    mean_nb = float(m["s2"]) / float(m["s1"])
    gap_num = m["n"] * m["s2"] - m["s1"] * m["s1"]
    return pd.DataFrame([{
        "n_nodes": m["n"], "mean_degree": np.round(mean_k, 6),
        "mean_neighbor_degree": np.round(mean_nb, 6),
        "paradox_gap_num": gap_num,
        "paradox_holds_strictly": gap_num > 0}]).astype({
            "n_nodes": np.int64, "paradox_gap_num": np.int64})


def _sql_friendship() -> str:
    return f"""
WITH {SQL_DEGREE_MOMENTS_CTE.strip()}
SELECT n AS n_nodes,
       ROUND(CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE), 6)
         AS mean_degree,
       ROUND(CAST(s2 AS DOUBLE) / CAST(s1 AS DOUBLE), 6)
         AS mean_neighbor_degree,
       CAST(n * s2 - s1 * s1 AS BIGINT) AS paradox_gap_num,
       n * s2 - s1 * s1 > 0 AS paradox_holds_strictly
FROM mo
"""


def q_config_model_triangles(sf_dir: str):
    """Expected triangle count under the degree-preserving
    configuration model — the null the registry's exact
    triangle_count_links should be judged against (a clustering
    claim means nothing until the degree sequence's free triangles
    are subtracted): E[T] ≈ (Σk(k−1))³/(6·(Σk)³).  The numerator
    (Σk²−Σk)³ and denominator 6(Σk)³ are arbitrary-precision
    integers; ONE mirrored division lands the expectation."""
    m = _degree_moments_links(sf_dir)
    num = (m["s2"] - m["s1"]) ** 3
    den = 6 * m["s1"] ** 3
    return pd.DataFrame([{
        "n_nodes": m["n"], "sum_k_k1": m["s2"] - m["s1"],
        "expected_triangles": np.round(float(num) / float(den), 6)}]
    ).astype({"n_nodes": np.int64, "sum_k_k1": np.int64})


def _sql_config_triangles() -> str:
    return f"""
WITH {SQL_DEGREE_MOMENTS_CTE.strip()}
SELECT n AS n_nodes, s2 - s1 AS sum_k_k1,
       ROUND(CAST(CAST(s2 - s1 AS HUGEINT) * (s2 - s1) * (s2 - s1)
                  AS DOUBLE)
             / CAST(6 * CAST(s1 AS HUGEINT) * s1 * s1 AS DOUBLE),
             6) AS expected_triangles
FROM mo
"""


_RETRIEVAL_QUERY = ("join", "merge", "sort")


def _doc_term_stats(sf_dir: str):
    """Shared per-(doc, query-term) tf + doc-length reduce for the
    retrieval-scoring family (query = the fixed 3-term panel), plus
    the collection stats — one pass, exact integers."""
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    terms = list(_RETRIEVAL_QUERY)

    def partial(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t["text"], pattern=" ")
        lens = pc.list_value_length(parts) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        rows = {"doc_id": [], "term": [], "tf": [], "dl": []}
        words = parts.to_pylist()
        ids = t["doc_id"].to_pylist()
        for did, ws, ln in zip(ids, words, lens):
            cnt = {}
            for w in ws:
                if w in _RETRIEVAL_QUERY:
                    cnt[w] = cnt.get(w, 0) + 1
            for term in terms:
                rows["doc_id"].append(did)
                rows["term"].append(term)
                rows["tf"].append(cnt.get(term, 0))
                rows["dl"].append(int(ln))
        return pa.Table.from_pandas(pd.DataFrame(rows),
                                    preserve_index=False)

    tf = relational.ds_to_table(
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby(["doc_id", "term"]).aggregate(
            Sum("tf", alias_name="tf"), Sum("dl", alias_name="dl"))
    ).to_pandas()
    clen = int(tf.groupby("doc_id")["dl"].first().sum())
    n_docs = tf["doc_id"].nunique()
    ctf = tf.groupby("term")["tf"].sum()
    df_ = tf[tf["tf"] > 0].groupby("term")["doc_id"].nunique()
    return tf, {"clen": clen, "n_docs": int(n_docs),
                "ctf": {t: int(ctf.get(t, 0)) for t in terms},
                "df": {t: int(df_.get(t, 0)) for t in terms}}


SQL_DOC_TERMS_CTE = """
w AS (SELECT doc_id, unnest(string_split(text, ' ')) AS word
      FROM documents),
dl AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS dl
       FROM w GROUP BY 1),
qt AS (SELECT unnest(['join', 'merge', 'sort']) AS term),
tf AS (SELECT d.doc_id, qt.term, dl.dl,
              CAST(COALESCE(c.tf, 0) AS BIGINT) AS tf
       FROM (SELECT DISTINCT doc_id FROM w) d
       CROSS JOIN qt
       JOIN dl USING (doc_id)
       LEFT JOIN (SELECT doc_id, word, CAST(COUNT(*) AS BIGINT)
                    AS tf
                  FROM w WHERE word IN ('join', 'merge', 'sort')
                  GROUP BY 1, 2) c
         ON c.doc_id = d.doc_id AND c.word = qt.term),
coll AS (SELECT (SELECT SUM(dl) FROM dl) AS clen,
                (SELECT COUNT(*) FROM dl) AS n_docs),
ctf AS (SELECT term, SUM(tf) AS ctf,
               SUM(CASE WHEN tf > 0 THEN 1 ELSE 0 END) AS df
        FROM tf GROUP BY 1)
"""


def q_jm_smoothing_retrieval(sf_dir: str):
    """Query-likelihood retrieval with Jelinek–Mercer smoothing
    (λ = 0.7) for the fixed 3-term query — the linear-interpolation
    rival of the registry's Dirichlet scorer (JM favors long docs
    less; the λ knob IS the verbosity prior): each term's
    ln(λ·tf/dl + (1−λ)·ctf/clen) is NANO-QUANTIZED so the per-doc
    score is an INTEGER sum and the top-10 ordering can't float
    (the eleven-point lesson applied at birth)."""
    tf, coll = _doc_term_stats(sf_dir)
    lam = 0.7
    term_p = {t: coll["ctf"][t] / float(coll["clen"])
              for t in _RETRIEVAL_QUERY}
    tf = tf.copy()
    # 0.3 as a LITERAL: python's 1.0-0.7 is 0.30000000000000004,
    # which is not the twin's 0.3
    p = lam * tf["tf"].to_numpy(np.int64) \
        / tf["dl"].to_numpy(np.int64) \
        + 0.3 * tf["term"].map(term_p).to_numpy(np.float64)
    tf["q9"] = np.floor(np.log(p) * 1e9 + 0.5).astype(np.int64)
    sc = tf.groupby("doc_id")["q9"].sum().reset_index()
    top = sc.sort_values(["q9", "doc_id"],
                         ascending=[False, True]).head(10)
    return pd.DataFrame({
        "doc_id": top["doc_id"].astype(np.int64),
        "score9": top["q9"].astype(np.int64),
        "score": (top["q9"] / 1e9).round(6)})


def _sql_jm() -> str:
    return f"""
WITH {SQL_DOC_TERMS_CTE.strip()},
s AS (SELECT tf.doc_id,
             CAST(SUM(CAST(FLOOR(LN(
               0.7 * CAST(tf.tf AS DOUBLE) / CAST(tf.dl AS DOUBLE)
               + 0.3 * (CAST(ctf.ctf AS DOUBLE)
                        / CAST(coll.clen AS DOUBLE)))
               * 1e9 + 0.5) AS BIGINT)) AS BIGINT) AS q9
      FROM tf JOIN ctf USING (term), coll
      GROUP BY 1)
SELECT doc_id, q9 AS score9, ROUND(q9 / 1e9, 6) AS score
FROM s ORDER BY q9 DESC, doc_id LIMIT 10
"""


def q_pivoted_length_retrieval(sf_dir: str):
    """Pivoted length-normalization VSM (Singhal et al., s = 0.2) —
    the fix for cosine's short-document bias that pre-dated BM25's
    dominance: score = Σ tf·ln((N+1)/df) / (0.8 + 0.2·dl/avgdl),
    per-term contributions nano-quantized to integer score keys.
    Carried beside BM25/Dirichlet/JM so a user can diff all four
    rankers on the same panel."""
    tf, coll = _doc_term_stats(sf_dir)
    avgdl = coll["clen"] / float(coll["n_docs"])
    idf = {t: float(np.log((coll["n_docs"] + 1)
                           / float(coll["df"][t])))
           for t in _RETRIEVAL_QUERY}
    tfx = tf.copy()
    num = tfx["tf"].to_numpy(np.int64).astype(np.float64) \
        * tfx["term"].map(idf).to_numpy(np.float64)
    den = 0.8 + 0.2 * (tfx["dl"].to_numpy(np.int64) / avgdl)
    tfx["q9"] = np.floor(num / den * 1e9 + 0.5).astype(np.int64)
    sc = tfx.groupby("doc_id")["q9"].sum().reset_index()
    top = sc.sort_values(["q9", "doc_id"],
                         ascending=[False, True]).head(10)
    return pd.DataFrame({
        "doc_id": top["doc_id"].astype(np.int64),
        "score9": top["q9"].astype(np.int64),
        "score": (top["q9"] / 1e9).round(6)})


def _sql_pivoted() -> str:
    return f"""
WITH {SQL_DOC_TERMS_CTE.strip()},
s AS (SELECT tf.doc_id,
             CAST(SUM(CAST(FLOOR(
               CAST(tf.tf AS DOUBLE)
               * LN((coll.n_docs + 1) / CAST(ctf.df AS DOUBLE))
               / (0.8 + 0.2 * (CAST(tf.dl AS DOUBLE)
                               / (CAST(coll.clen AS DOUBLE)
                                  / CAST(coll.n_docs AS DOUBLE))))
               * 1e9 + 0.5) AS BIGINT)) AS BIGINT) AS q9
      FROM tf JOIN ctf USING (term), coll
      GROUP BY 1)
SELECT doc_id, q9 AS score9, ROUND(q9 / 1e9, 6) AS score
FROM s ORDER BY q9 DESC, doc_id LIMIT 10
"""


def q_coordination_matching(sf_dir: str):
    """Coordination-level matching — boolean retrieval's ranking
    ancestor (rank by HOW MANY query terms a doc matches, ties by
    total tf): both keys are pure integers from the shared panel, and
    the per-level match census shows the query's discriminating
    power.  The op every ranker above must beat to justify its
    floats."""
    tf, _ = _doc_term_stats(sf_dir)
    per = tf.groupby("doc_id").agg(
        coord=("tf", lambda s: int((s.to_numpy() > 0).sum())),
        tot_tf=("tf", "sum")).reset_index()
    census = per.groupby("coord").size()
    top = per.sort_values(["coord", "tot_tf", "doc_id"],
                          ascending=[False, False, True]).head(10)
    out = pd.DataFrame({
        "doc_id": top["doc_id"].astype(np.int64),
        "n_terms_matched": top["coord"].astype(np.int64),
        "total_tf": top["tot_tf"].astype(np.int64)})
    out["n_docs_full_match"] = int(census.get(3, 0))
    return out


def _sql_coordination() -> str:
    return f"""
WITH {SQL_DOC_TERMS_CTE.strip()},
per AS (SELECT doc_id,
               CAST(SUM(CASE WHEN tf > 0 THEN 1 ELSE 0 END)
                    AS BIGINT) AS coord,
               CAST(SUM(tf) AS BIGINT) AS tot_tf
        FROM tf GROUP BY 1),
c3 AS (SELECT CAST(COUNT(*) AS BIGINT) AS full_match
       FROM per WHERE coord = 3)
SELECT doc_id, coord AS n_terms_matched, tot_tf AS total_tf,
       c3.full_match AS n_docs_full_match
FROM per, c3
ORDER BY coord DESC, tot_tf DESC, doc_id LIMIT 10
"""


_CLUSTER_PANEL_MEMO: dict = {}


def _cluster_validity_panel(sf_dir: str) -> dict:
    """Shared per-cluster moment reduce for the clustering-validity
    family (CH / Davies–Bouldin / simplified silhouette): assign each
    embedding to its argmax-cosine seed centroid (the exact
    `kmeans_assign` math) and fold per-cluster count, component-wise
    sum vector and Σ‖x‖² in ONE streaming pass — per batch the
    partial is ≤ k×(dim+1) rows, nothing per-point reaches the
    driver.  Memoized per input fingerprint so the three indices in a
    combined run share one pass."""
    from ray.data.aggregate import Sum
    from ...stages.similarity import _as_matrix, fixed_centroids
    memo_key = _fingerprint_cache_dir(sf_dir, "embeddings", "clval")
    hit = _CLUSTER_PANEL_MEMO.get(memo_key)
    if hit is not None:
        return hit
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    C = fixed_centroids(_SEM_K, _SEM_DIM, _SEM_SEED)
    Cn = np.linalg.norm(C, axis=1)

    def partial(t: pa.Table) -> pa.Table:
        m = _as_matrix(t["embedding"]).astype(np.float64)
        en = np.maximum(np.linalg.norm(m, axis=1), 1e-300)
        sims = (m @ C.T) / (en[:, None] * Cn[None, :])
        cl = np.argmax(sims, axis=1)
        k, d = C.shape
        sums = np.zeros((k, d))
        np.add.at(sums, cl, m)
        cnt = np.bincount(cl, minlength=k).astype(np.int64)
        sq = np.zeros(k)
        np.add.at(sq, cl, (m * m).sum(axis=1))
        # long-form: (cluster, dim 1..d) carries the sum vector; the
        # scalar n / Σ‖x‖² ride ONLY on the dim-1 rows (0 elsewhere)
        # so one (cluster, dim) groupby folds everything
        return pa.table({
            "cluster": pa.array(np.repeat(np.arange(k,
                                                    dtype=np.int64), d)),
            "dim": pa.array(np.tile(np.arange(1, d + 1), k)),
            "s": pa.array(sums.reshape(-1), type=pa.float64()),
            "n_": pa.array(np.where(
                np.tile(np.arange(1, d + 1), k) == 1,
                np.repeat(cnt, d), 0).astype(np.int64)),
            "sq": pa.array(np.where(
                np.tile(np.arange(1, d + 1), k) == 1,
                np.repeat(sq, d), 0.0), type=pa.float64())})

    g = relational.ds_to_table(
        emb.map_batches(partial, batch_format="pyarrow")
        .groupby(["cluster", "dim"]).aggregate(
            Sum("s", alias_name="s"), Sum("n_", alias_name="n"),
            Sum("sq", alias_name="sq"))).to_pandas() \
        .sort_values(["cluster", "dim"]).reset_index(drop=True)
    k = _SEM_K
    d = _SEM_DIM
    S = np.zeros((k, d))
    S[g["cluster"].to_numpy(np.int64),
      g["dim"].to_numpy(np.int64) - 1] = g["s"].to_numpy()
    one = g[g["dim"] == 1].set_index("cluster")
    n_c = np.zeros(k, dtype=np.int64)
    n_c[one.index.to_numpy()] = one["n"].to_numpy(np.int64)
    sq_c = np.zeros(k)
    sq_c[one.index.to_numpy()] = one["sq"].to_numpy()
    out = {"n": n_c, "S": S, "sq": sq_c}
    _CLUSTER_PANEL_MEMO.clear()
    _CLUSTER_PANEL_MEMO[memo_key] = out
    return out


def _sql_cluster_base() -> str:
    from ...stages.similarity import centroid_sql_values, fixed_centroids
    vals = centroid_sql_values(
        fixed_centroids(_SEM_K, _SEM_DIM, _SEM_SEED))
    return f"""
cents(cid, c) AS (VALUES
    {vals}),
sims AS (SELECT e.vec_id, c.cid,
                list_cosine_similarity(e.embedding, c.c) AS s
         FROM embeddings e CROSS JOIN cents c),
asg AS (SELECT vec_id, cid AS cluster
        FROM (SELECT vec_id, cid,
                     ROW_NUMBER() OVER (PARTITION BY vec_id
                                        ORDER BY s DESC, cid) AS rn
              FROM sims) WHERE rn = 1),
pt AS (SELECT a.vec_id, a.cluster, e.embedding
       FROM asg a JOIN embeddings e USING (vec_id)),
dims AS (SELECT unnest(generate_series(1, {_SEM_DIM})) AS i),
px AS (SELECT vec_id, cluster, i,
              CAST(embedding[CAST(i AS INT)] AS DOUBLE) AS x
       FROM pt, dims),
cd AS (SELECT cluster, i, SUM(x) AS s,
              CAST(COUNT(*) AS BIGINT) AS n,
              SUM(x) / COUNT(*) AS mu
       FROM px GROUP BY 1, 2)"""


def q_calinski_harabasz(sf_dir: str):
    """Calinski–Harabasz (variance-ratio) index of the seed-centroid
    cosine clustering — THE default 'is k right?' internal validity
    score: CH = (BSS/(k−1)) / (WSS/(n−k)) over EMPIRICAL cluster
    means in Euclidean space, folded entirely from the shared
    per-cluster moment panel via BSS = Σ_c ‖s_c‖²/n_c − ‖S‖²/N and
    WSS = Σ‖x‖² − Σ_c ‖s_c‖²/n_c — no second pass, no per-point
    driver work.  k counts NONEMPTY clusters."""
    p = _cluster_validity_panel(sf_dir)
    live = p["n"] > 0
    n_tot = int(p["n"].sum())
    k = int(live.sum())
    ssd_c = (p["S"] ** 2).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        per = np.where(live, ssd_c / np.maximum(p["n"], 1), 0.0)
    ssd_tot = float((p["S"].sum(axis=0) ** 2).sum())
    bss = float(per.sum()) - ssd_tot / n_tot
    wss = float(p["sq"].sum()) - float(per.sum())
    ch = (bss / (k - 1)) / (wss / (n_tot - k))
    return pd.DataFrame([{
        "n_points": n_tot, "k_clusters": k,
        "bss": np.round(bss, 6), "wss": np.round(wss, 6),
        "ch_index": np.round(ch, 6)}]).astype({
            "n_points": np.int64, "k_clusters": np.int64})


def _sql_calinski() -> str:
    return f"""
WITH {_sql_cluster_base().strip()},
sq AS (SELECT cluster, SUM(x * x) AS sq FROM px GROUP BY 1),
cl AS (SELECT cd.cluster, MAX(cd.n) AS n, SUM(cd.s * cd.s) AS ssd
       FROM cd GROUP BY 1),
gl AS (SELECT SUM(ss * ss) AS ssd_tot FROM (
         SELECT i, SUM(x) AS ss FROM px GROUP BY 1)),
f AS (SELECT CAST(SUM(cl.n) AS BIGINT) AS n_tot,
             CAST(COUNT(*) AS BIGINT) AS k,
             SUM(cl.ssd / cl.n) AS per,
             (SELECT SUM(sq) FROM sq) AS sqt,
             (SELECT ssd_tot FROM gl) AS ssd_tot
      FROM cl)
SELECT n_tot AS n_points, k AS k_clusters,
       ROUND(per - ssd_tot / n_tot, 6) AS bss,
       ROUND(sqt - per, 6) AS wss,
       ROUND(((per - ssd_tot / n_tot) / (k - 1))
             / ((sqt - per) / (n_tot - k)), 6) AS ch_index
FROM f
"""


def q_davies_bouldin_clusters(sf_dir: str):
    """Davies–Bouldin per-cluster similarity scores — the
    worst-neighbour validity view (CH averages everything; DB names
    WHICH cluster pair blurs): R_c = max_{c'≠c} (σ_c + σ_c')/d_cc'
    with the RMS radius σ_c = √(WSS_c/n_c) (stated variant — the
    per-point-mean radius would need a second pass) and Euclidean
    centroid gaps d_cc'.  Everything folds from the shared panel;
    the DB index itself is mean(R_c).  Output per nonempty cluster."""
    p = _cluster_validity_panel(sf_dir)
    live = np.where(p["n"] > 0)[0]
    mu = p["S"][live] / p["n"][live, None]
    ssd = (p["S"][live] ** 2).sum(axis=1)
    wss_c = p["sq"][live] - ssd / p["n"][live]
    sig = np.sqrt(np.maximum(wss_c, 0.0) / p["n"][live])
    rows = []
    for a in range(len(live)):
        best = -1.0
        for b in range(len(live)):
            if a == b:
                continue
            dd_ = float(np.sqrt(((mu[a] - mu[b]) ** 2).sum()))
            best = max(best, (float(sig[a]) + float(sig[b])) / dd_)
        rows.append({"cluster": int(live[a]),
                     "n_points": int(p["n"][live[a]]),
                     "sigma": np.round(float(sig[a]), 6),
                     "r_db": np.round(best, 6)})
    return pd.DataFrame(rows).astype({
        "cluster": np.int64, "n_points": np.int64})


def _sql_davies_bouldin() -> str:
    return f"""
WITH {_sql_cluster_base().strip()},
sq AS (SELECT cluster, SUM(x * x) AS sq FROM px GROUP BY 1),
cl AS (SELECT cd.cluster, MAX(cd.n) AS n, SUM(cd.s * cd.s) AS ssd
       FROM cd GROUP BY 1),
sig AS (SELECT cl.cluster, cl.n,
               SQRT(GREATEST(sq.sq - cl.ssd / cl.n, 0.0) / cl.n)
                 AS sigma
        FROM cl JOIN sq USING (cluster)),
dist AS (SELECT a.cluster AS ca, b.cluster AS cb,
                SQRT(SUM((a.mu - b.mu) * (a.mu - b.mu))) AS d
         FROM cd a JOIN cd b ON a.i = b.i AND a.cluster <> b.cluster
         GROUP BY 1, 2)
SELECT s1.cluster, s1.n AS n_points, ROUND(s1.sigma, 6) AS sigma,
       ROUND(MAX((s1.sigma + s2.sigma) / dist.d), 6) AS r_db
FROM dist JOIN sig s1 ON s1.cluster = dist.ca
          JOIN sig s2 ON s2.cluster = dist.cb
GROUP BY 1, 2, 3 ORDER BY 1
"""


def q_silhouette_simplified(sf_dir: str):
    """Simplified (centroid-based) silhouette per cluster — the O(n·k)
    scale path of the O(n²) classic: a_i = ‖x_i − μ_own‖,
    b_i = min_{c≠own} ‖x_i − μ_c‖ against the EMPIRICAL cluster means
    from the shared panel, s_i = (b−a)/max(a,b).  Second streaming
    pass with the k×dim mean matrix broadcast; each s_i is
    MICRO-QUANTIZED (⌊s·1e6 + 0.5⌋) so the per-cluster fold is an
    order-free integer sum, mirrored per point by the twin."""
    from ray.data.aggregate import Sum
    from ...stages.similarity import _as_matrix, fixed_centroids
    p = _cluster_validity_panel(sf_dir)
    C = fixed_centroids(_SEM_K, _SEM_DIM, _SEM_SEED)
    Cn = np.linalg.norm(C, axis=1)
    live = np.where(p["n"] > 0)[0]
    mu = p["S"][live] / p["n"][live, None]
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def partial(t: pa.Table) -> pa.Table:
        m = _as_matrix(t["embedding"]).astype(np.float64)
        en = np.maximum(np.linalg.norm(m, axis=1), 1e-300)
        sims = (m @ C.T) / (en[:, None] * Cn[None, :])
        own = np.argmax(sims, axis=1)
        own_pos = np.searchsorted(live, own)
        d2 = ((m[:, None, :] - mu[None, :, :]) ** 2).sum(axis=2)
        dd_ = np.sqrt(d2)
        a = dd_[np.arange(len(m)), own_pos]
        masked = dd_.copy()
        masked[np.arange(len(m)), own_pos] = np.inf
        b = masked.min(axis=1)
        s = np.where(np.maximum(a, b) > 0,
                     (b - a) / np.maximum(a, b), 0.0)
        q = np.floor(s * 1e6 + 0.5).astype(np.int64)
        g = pd.DataFrame({"cluster": own, "q": q, "c": 1}) \
            .groupby("cluster", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    g = relational.ds_to_table(
        emb.map_batches(partial, batch_format="pyarrow")
        .groupby("cluster").aggregate(Sum("q", alias_name="q"),
                                      Sum("c", alias_name="c"))
    ).to_pandas().sort_values("cluster").reset_index(drop=True)
    return pd.DataFrame({
        "cluster": g["cluster"].astype(np.int64),
        "n_points": g["c"].astype(np.int64),
        "mean_ssil": np.round(
            g["q"].to_numpy(np.float64) / 1e6
            / g["c"].to_numpy(np.float64), 6)})


def _sql_silhouette() -> str:
    return f"""
WITH {_sql_cluster_base().strip()},
pdist AS (SELECT px.vec_id, px.cluster AS own, cd.cluster AS cid,
                 SQRT(SUM((px.x - cd.mu) * (px.x - cd.mu))) AS d
          FROM px JOIN cd ON px.i = cd.i
          GROUP BY 1, 2, 3),
ab AS (SELECT vec_id, own,
              MAX(CASE WHEN cid = own THEN d END) AS a,
              MIN(CASE WHEN cid <> own THEN d END) AS b
       FROM pdist GROUP BY 1, 2),
sv AS (SELECT own,
              CAST(FLOOR(CASE WHEN GREATEST(a, b) > 0
                         THEN (b - a) / GREATEST(a, b)
                         ELSE 0.0 END * 1e6 + 0.5) AS BIGINT) AS q
       FROM ab)
SELECT own AS cluster, CAST(COUNT(*) AS BIGINT) AS n_points,
       ROUND(SUM(q) / 1e6 / COUNT(*), 6) AS mean_ssil
FROM sv GROUP BY 1 ORDER BY 1
"""


_VOCAB_SPECTRUM_MEMO: dict = {}


def _source_vocab_spectrum(sf_dir: str) -> pd.DataFrame:
    """Shared per-source frequency-spectrum reduce for the
    authorship-richness family: tokens N, vocabulary V, hapax
    legomena V1 and dis legomena V2 — the (source, word) exact-count
    shuffle happens ONCE (same shape as the Yule's K op), then a
    spectrum partial folds the counts; memoized per fingerprint."""
    from ray.data.aggregate import Sum
    memo_key = _fingerprint_cache_dir(sf_dir, "documents", "vspec")
    hit = _VOCAB_SPECTRUM_MEMO.get(memo_key)
    if hit is not None:
        return hit.copy()
    docs = _read(sf_dir, "documents", ["source", "text"])

    def tok_partial(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t["text"], pattern=" ")
        lens = pc.list_value_length(parts).to_numpy(
            zero_copy_only=False).astype(np.int64)
        src = np.repeat(t["source"].to_numpy(zero_copy_only=False),
                        lens)
        w = pc.list_flatten(parts).to_numpy(zero_copy_only=False)
        g = pd.DataFrame({"source": src, "w": w, "c": 1}) \
            .groupby(["source", "w"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    def spec_partial(t: pa.Table) -> pa.Table:
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        g = pd.DataFrame({"source": t["source"].to_pandas(),
                          "pv": 1, "pn": c,
                          "p1": (c == 1).astype(np.int64),
                          "p2": (c == 2).astype(np.int64)}) \
            .groupby("source", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    out = relational.ds_to_table(
        docs.map_batches(tok_partial, batch_format="pyarrow")
        .groupby(["source", "w"]).aggregate(Sum("c", alias_name="c"))
        .map_batches(spec_partial, batch_format="pyarrow")
        .groupby("source").aggregate(
            Sum("pv", alias_name="v"), Sum("pn", alias_name="n"),
            Sum("p1", alias_name="v1"), Sum("p2", alias_name="v2"))
    ).to_pandas().sort_values("source").reset_index(drop=True)
    _VOCAB_SPECTRUM_MEMO.clear()
    _VOCAB_SPECTRUM_MEMO[memo_key] = out.copy()
    return out


SQL_VSPEC_CTE = """
tok AS (SELECT source, unnest(string_split(text, ' ')) AS w
        FROM documents),
wc AS (SELECT source, w, CAST(COUNT(*) AS BIGINT) AS c
       FROM tok GROUP BY 1, 2),
sp AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS v,
              CAST(SUM(c) AS BIGINT) AS n,
              CAST(SUM(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS BIGINT)
                AS v1,
              CAST(SUM(CASE WHEN c = 2 THEN 1 ELSE 0 END) AS BIGINT)
                AS v2
       FROM wc GROUP BY 1)
"""


def q_honore_r_sources(sf_dir: str):
    """Honoré's R per source — the hapax-based authorship statistic
    (R = 100·ln N / (1 − V1/V)): rich, non-repeating vocabularies
    push V1/V toward 1 and R up; template mills re-use words and R
    collapses.  Completes the attribution panel beside Yule's K
    (second moment) and Burrows' Delta (word profiles) — three
    instruments that disagree exactly when a source is gaming one of
    them.  Exact integer spectrum inputs, one mirrored libm chain;
    the all-hapax degenerate (V1 = V) is NULL by stated convention."""
    import math
    sp = _source_vocab_spectrum(sf_dir)
    rows = []
    for r in sp.itertuples(index=False):
        n, v, v1 = int(r.n), int(r.v), int(r.v1)
        hr = np.nan if v1 == v else \
            100.0 * math.log(n) / (1.0 - v1 / v)
        rows.append({"source": r.source, "n_tokens": n, "vocab": v,
                     "hapax": v1,
                     "honore_r": np.round(hr, 6)})
    return pd.DataFrame(rows).astype({
        "n_tokens": np.int64, "vocab": np.int64, "hapax": np.int64})


def _sql_honore() -> str:
    return f"""
WITH {SQL_VSPEC_CTE.strip()}
SELECT source, n AS n_tokens, v AS vocab, v1 AS hapax,
       CASE WHEN v1 = v THEN NULL
            ELSE ROUND(100.0 * LN(n)
                       / (1.0 - CAST(v1 AS DOUBLE) / v), 6) END
         AS honore_r
FROM sp ORDER BY source
"""


def q_sichel_s_sources(sf_dir: str):
    """Sichel's S per source — the dis-legomena share S = V2/V,
    empirically near-constant for a single author across text sizes
    (Sichel 1975), which is exactly why a shift flags template
    injection or a changed generator.  One exact ratio per source
    from the shared spectrum panel."""
    sp = _source_vocab_spectrum(sf_dir)
    return pd.DataFrame({
        "source": sp["source"],
        "vocab": sp["v"].astype(np.int64),
        "dis_legomena": sp["v2"].astype(np.int64),
        "sichel_s": np.round(
            sp["v2"].to_numpy(np.float64)
            / sp["v"].to_numpy(np.float64), 6)})


def _sql_sichel() -> str:
    return f"""
WITH {SQL_VSPEC_CTE.strip()}
SELECT source, v AS vocab, v2 AS dis_legomena,
       ROUND(CAST(v2 AS DOUBLE) / v, 6) AS sichel_s
FROM sp ORDER BY source
"""


def q_brunet_w_sources(sf_dir: str):
    """Brunet's W per source — W = N^(V^−0.165), the classically
    length-insensitive richness index (the constant 0.165 is
    Brunet's own): lower W = richer vocabulary.  Both engines
    evaluate the same scalar libm pow chain on exact integer N, V
    (glibc pow is correctly rounded, so the doubles are identical);
    one ROUND 6 finish."""
    import math
    sp = _source_vocab_spectrum(sf_dir)
    rows = []
    for r in sp.itertuples(index=False):
        n, v = int(r.n), int(r.v)
        w = math.pow(n, math.pow(v, -0.165))
        rows.append({"source": r.source, "n_tokens": n, "vocab": v,
                     "brunet_w": np.round(w, 6)})
    return pd.DataFrame(rows).astype({
        "n_tokens": np.int64, "vocab": np.int64})


def _sql_brunet() -> str:
    return f"""
WITH {SQL_VSPEC_CTE.strip()}
SELECT source, n AS n_tokens, v AS vocab,
       ROUND(POWER(n, POWER(v, -0.165)), 6) AS brunet_w
FROM sp ORDER BY source
"""


def q_two_stage_retrieval(sf_dir: str):
    """Zhai–Lafferty TWO-STAGE smoothing (λ = 0.1, μ = 2000) for the
    fixed 3-term query — the 2002 result that Dirichlet and JM fix
    DIFFERENT problems (estimation vs query-verbosity) and should be
    composed: p = (1−λ)·(tf + μ·p_C)/(dl + μ) + λ·p_C.  Completes
    the smoothing family (Dirichlet / JM / pivoted / coordination /
    BM25 all ride the same panel, so the five rankers diff cleanly);
    per-term ln terms nano-quantized to integer score keys, 0.9 as a
    literal (1 − 0.1 is not the twin's 0.9)."""
    tf, coll = _doc_term_stats(sf_dir)
    mu = 2000.0
    term_p = {t: coll["ctf"][t] / float(coll["clen"])
              for t in _RETRIEVAL_QUERY}
    pcol = tf["term"].map(term_p).to_numpy(np.float64)
    p = 0.9 * (tf["tf"].to_numpy(np.int64) + mu * pcol) \
        / (tf["dl"].to_numpy(np.int64) + mu) + 0.1 * pcol
    q9 = np.floor(np.log(p) * 1e9 + 0.5).astype(np.int64)
    sc = pd.DataFrame({"doc_id": tf["doc_id"], "q9": q9}) \
        .groupby("doc_id")["q9"].sum().reset_index()
    top = sc.sort_values(["q9", "doc_id"],
                         ascending=[False, True]).head(10)
    return pd.DataFrame({
        "doc_id": top["doc_id"].astype(np.int64),
        "score9": top["q9"].astype(np.int64),
        "score": (top["q9"] / 1e9).round(6)})


def _sql_two_stage() -> str:
    return f"""
WITH {SQL_DOC_TERMS_CTE.strip()},
s AS (SELECT tf.doc_id,
             CAST(SUM(CAST(FLOOR(LN(
               0.9 * (CAST(tf.tf AS DOUBLE)
                      + 2000.0 * (CAST(ctf.ctf AS DOUBLE)
                                  / CAST(coll.clen AS DOUBLE)))
               / (CAST(tf.dl AS DOUBLE) + 2000.0)
               + 0.1 * (CAST(ctf.ctf AS DOUBLE)
                        / CAST(coll.clen AS DOUBLE)))
               * 1e9 + 0.5) AS BIGINT)) AS BIGINT) AS q9
      FROM tf JOIN ctf USING (term), coll
      GROUP BY 1)
SELECT doc_id, q9 AS score9, ROUND(q9 / 1e9, 6) AS score
FROM s ORDER BY q9 DESC, doc_id LIMIT 10
"""


def q_ranker_agreement_tau(sf_dir: str):
    """Kendall τ-b between the JM and pivoted-length rankers over
    EVERY document — the meta-evaluation number ('do my rankers even
    agree before I trust an ensemble?'): both rankings are the
    registry rankers' own INTEGER score keys, so every pairwise
    concordance decision is exact and the tie corrections n₁, n₂
    are exact integer counts; τ-b spends one mirrored sqrt chain."""
    import math
    tf, coll = _doc_term_stats(sf_dir)
    lam = 0.7
    term_p = {t: coll["ctf"][t] / float(coll["clen"])
              for t in _RETRIEVAL_QUERY}
    pcol = tf["term"].map(term_p).to_numpy(np.float64)
    p = lam * tf["tf"].to_numpy(np.int64) \
        / tf["dl"].to_numpy(np.int64) + 0.3 * pcol
    jm9 = np.floor(np.log(p) * 1e9 + 0.5).astype(np.int64)
    avgdl = coll["clen"] / float(coll["n_docs"])
    idf = {t: float(np.log((coll["n_docs"] + 1)
                           / float(coll["df"][t])))
           for t in _RETRIEVAL_QUERY}
    num = tf["tf"].to_numpy(np.int64).astype(np.float64) \
        * tf["term"].map(idf).to_numpy(np.float64)
    den = 0.8 + 0.2 * (tf["dl"].to_numpy(np.int64) / avgdl)
    pv9 = np.floor(num / den * 1e9 + 0.5).astype(np.int64)
    d = pd.DataFrame({"doc_id": tf["doc_id"], "jm": jm9,
                      "pv": pv9}).groupby("doc_id").sum()
    a = d["jm"].to_numpy(np.int64)
    b = d["pv"].to_numpy(np.int64)
    n = len(d)
    da = np.sign(a[:, None] - a[None, :])
    db_ = np.sign(b[:, None] - b[None, :])
    iu = np.triu_indices(n, k=1)
    prod = da[iu] * db_[iu]
    conc = int((prod > 0).sum())
    disc = int((prod < 0).sum())
    n0 = n * (n - 1) // 2
    n1 = sum(int(c) * (int(c) - 1) // 2
             for c in pd.Series(a).value_counts())
    n2 = sum(int(c) * (int(c) - 1) // 2
             for c in pd.Series(b).value_counts())
    tau = (conc - disc) / math.sqrt(float(n0 - n1)) \
        / math.sqrt(float(n0 - n2))
    return pd.DataFrame([{
        "n_docs": n, "concordant": conc, "discordant": disc,
        "tau_b": np.round(tau, 6)}]).astype({
            "n_docs": np.int64, "concordant": np.int64,
            "discordant": np.int64})


def _sql_ranker_tau() -> str:
    return f"""
WITH {SQL_DOC_TERMS_CTE.strip()},
jm AS (SELECT tf.doc_id,
              CAST(SUM(CAST(FLOOR(LN(
                0.7 * CAST(tf.tf AS DOUBLE) / CAST(tf.dl AS DOUBLE)
                + 0.3 * (CAST(ctf.ctf AS DOUBLE)
                         / CAST(coll.clen AS DOUBLE)))
                * 1e9 + 0.5) AS BIGINT)) AS BIGINT) AS a
       FROM tf JOIN ctf USING (term), coll GROUP BY 1),
pv AS (SELECT tf.doc_id,
              CAST(SUM(CAST(FLOOR(
                CAST(tf.tf AS DOUBLE)
                * LN((coll.n_docs + 1) / CAST(ctf.df AS DOUBLE))
                / (0.8 + 0.2 * (CAST(tf.dl AS DOUBLE)
                                / (CAST(coll.clen AS DOUBLE)
                                   / CAST(coll.n_docs AS DOUBLE))))
                * 1e9 + 0.5) AS BIGINT)) AS BIGINT) AS b
       FROM tf JOIN ctf USING (term), coll GROUP BY 1),
j AS (SELECT jm.doc_id, jm.a, pv.b FROM jm JOIN pv USING (doc_id)),
pairs AS (SELECT CAST(SUM(CASE WHEN (x.a < y.a AND x.b < y.b)
                     OR (x.a > y.a AND x.b > y.b)
                     THEN 1 ELSE 0 END) AS BIGINT) AS conc,
                 CAST(SUM(CASE WHEN (x.a < y.a AND x.b > y.b)
                     OR (x.a > y.a AND x.b < y.b)
                     THEN 1 ELSE 0 END) AS BIGINT) AS disc
          FROM j x JOIN j y ON x.doc_id < y.doc_id),
nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM j),
t1 AS (SELECT SUM(c * (c - 1) // 2) AS n1 FROM (
         SELECT CAST(COUNT(*) AS BIGINT) AS c FROM j GROUP BY a)),
t2 AS (SELECT SUM(c * (c - 1) // 2) AS n2 FROM (
         SELECT CAST(COUNT(*) AS BIGINT) AS c FROM j GROUP BY b))
SELECT nn.n AS n_docs, pairs.conc AS concordant,
       pairs.disc AS discordant,
       ROUND((pairs.conc - pairs.disc)
             / SQRT(CAST(nn.n * (nn.n - 1) // 2 - t1.n1 AS DOUBLE))
             / SQRT(CAST(nn.n * (nn.n - 1) // 2 - t2.n2 AS DOUBLE)),
             6) AS tau_b
FROM nn, pairs, t1, t2
"""


_RAKE_STOPS = ("the", "and", "of", "to", "a", "in", "is", "it",
               "that", "for")


def q_rake_keywords(sf_dir: str):
    """RAKE keyword extraction (Rose et al. 2010) — the classic
    unsupervised keyphrase baseline beside the registry's TextRank:
    candidate phrases are maximal runs of non-stopwords (the en
    stopword profile as delimiters), word score = degree/frequency
    over all phrase occurrences, phrase score = Σ word scores.
    Phrase extraction is a per-batch pass; the (phrase, count) table
    is vocabulary-bounded and everything downstream (explode →
    word stats → scores) folds from it with nano-quantized ratio
    terms; top 10 by (score DESC, phrase) with occurrence counts."""
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["text"])
    stops = set(_RAKE_STOPS)

    def partial(t: pa.Table) -> pa.Table:
        cnt: dict = {}
        for txt in t["text"].to_pylist():
            run = []
            for w in (txt or "").split(" "):
                if w in stops or w == "":
                    if run:
                        ph = " ".join(run)
                        cnt[ph] = cnt.get(ph, 0) + 1
                        run = []
                else:
                    run.append(w)
            if run:
                ph = " ".join(run)
                cnt[ph] = cnt.get(ph, 0) + 1
        return pa.table({
            "phrase": pa.array(list(cnt.keys())),
            "c": pa.array(list(cnt.values()), type=pa.int64())})

    ph = relational.ds_to_table(
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("phrase").aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    ph["plen"] = ph["phrase"].str.split(" ").str.len()
    ex = ph.assign(word=ph["phrase"].str.split(" ")) \
        .explode("word")
    ex["cp"] = ex["c"] * ex["plen"]
    ws = ex.groupby("word").agg(deg=("cp", "sum"),
                                freq=("c", "sum")).reset_index()
    wmap9 = {r.word: int(np.floor(int(r.deg) / float(int(r.freq))
                                  * 1e9 + 0.5))
             for r in ws.itertuples(index=False)}
    ex["w9"] = ex["word"].map(wmap9)
    sc = ex.groupby("phrase").agg(
        s9=("w9", "sum"), c=("c", "first")).reset_index()
    top = sc.sort_values(["s9", "phrase"],
                         ascending=[False, True]).head(10)
    return pd.DataFrame({
        "phrase": top["phrase"],
        "n_occurrences": top["c"].astype(np.int64),
        "rake_score": (top["s9"] / 1e9).round(6)})


SQL_RAKE = """
WITH w AS (SELECT doc_id, unnest(string_split(text, ' ')) AS word,
                  generate_subscripts(string_split(text, ' '), 1)
                    AS i
           FROM documents),
ns AS (SELECT doc_id, i, word,
              i - ROW_NUMBER() OVER (PARTITION BY doc_id
                                     ORDER BY i) AS isl
       FROM w WHERE word NOT IN ('the', 'and', 'of', 'to', 'a',
                                 'in', 'is', 'it', 'that', 'for')
         AND word <> ''),
ph AS (SELECT string_agg(word, ' ' ORDER BY i) AS phrase
       FROM ns GROUP BY doc_id, isl),
pc_ AS (SELECT phrase, CAST(COUNT(*) AS BIGINT) AS c,
               len(string_split(phrase, ' ')) AS plen
        FROM ph GROUP BY 1),
pw AS (SELECT phrase, c, plen,
              unnest(string_split(phrase, ' ')) AS word
       FROM pc_),
ws AS (SELECT word, SUM(c * plen) AS deg, SUM(c) AS freq
       FROM pw GROUP BY 1),
sc AS (SELECT pw.phrase, MAX(pw.c) AS c,
              SUM(CAST(FLOOR(CAST(ws.deg AS DOUBLE) / ws.freq
                             * 1e9 + 0.5) AS BIGINT)) AS s9
       FROM pw JOIN ws USING (word) GROUP BY 1)
SELECT phrase, c AS n_occurrences,
       ROUND(s9 / 1e9, 6) AS rake_score
FROM sc ORDER BY s9 DESC, phrase LIMIT 10
"""


_TWO_SRC_MEMO: dict = {}


def _two_source_word_panel(sf_dir: str):
    """Shared two-source word-statistics panel for the stylometry
    pair: the two largest sources by doc count (ties to the lexical
    smaller name), per-word term counts AND containing-doc counts
    per side, plus side totals — one (source, word) reduce with
    per-batch distinct flags.  Memoized per fingerprint."""
    from ray.data.aggregate import Sum
    memo_key = _fingerprint_cache_dir(sf_dir, "documents", "twosrc")
    hit = _TWO_SRC_MEMO.get(memo_key)
    if hit is not None:
        return hit
    docs = _read(sf_dir, "documents", ["doc_id", "source", "text"])

    def counts(t: pa.Table) -> pa.Table:
        u, c = np.unique(t["source"].to_numpy(zero_copy_only=False),
                         return_counts=True)
        return pa.table({"source": pa.array(u),
                         "c": pa.array(c.astype(np.int64))})

    sc = relational.ds_to_table(
        docs.map_batches(counts, batch_format="pyarrow")
        .groupby("source").aggregate(Sum("c", alias_name="c"))
    ).to_pandas().sort_values(["c", "source"],
                              ascending=[False, True])
    src_a = str(sc["source"].iloc[0])
    src_b = str(sc["source"].iloc[1])
    na_docs = int(sc["c"].iloc[0])
    nb_docs = int(sc["c"].iloc[1])

    def partial(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["source"],
                        value_set=pa.array([src_a, src_b]))
        t = t.filter(keep)
        rows = {"word": [], "tfa": [], "tfb": [], "da": [],
                "db_": []}
        for src, txt in zip(t["source"].to_pylist(),
                            t["text"].to_pylist()):
            cnt: dict = {}
            for w in (txt or "").split(" "):
                if w:
                    cnt[w] = cnt.get(w, 0) + 1
            isa = src == src_a
            for w, c in cnt.items():
                rows["word"].append(w)
                rows["tfa"].append(c if isa else 0)
                rows["tfb"].append(0 if isa else c)
                rows["da"].append(1 if isa else 0)
                rows["db_"].append(0 if isa else 1)
        return pa.Table.from_pandas(pd.DataFrame(rows),
                                    preserve_index=False)

    wp = relational.ds_to_table(
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("word").aggregate(
            Sum("tfa", alias_name="tfa"),
            Sum("tfb", alias_name="tfb"),
            Sum("da", alias_name="da"),
            Sum("db_", alias_name="db_"))).to_pandas()
    out = (src_a, src_b, na_docs, nb_docs, wp)
    _TWO_SRC_MEMO.clear()
    _TWO_SRC_MEMO[memo_key] = out
    return out


SQL_TWO_SRC_CTE = """
sc AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS c
       FROM documents GROUP BY 1),
ab AS (SELECT MAX(CASE WHEN rn = 1 THEN source END) AS sa,
              MAX(CASE WHEN rn = 2 THEN source END) AS sb,
              MAX(CASE WHEN rn = 1 THEN c END) AS na,
              MAX(CASE WHEN rn = 2 THEN c END) AS nb
       FROM (SELECT source, c, ROW_NUMBER() OVER (
               ORDER BY c DESC, source) AS rn FROM sc)
       WHERE rn <= 2),
w AS (SELECT d.doc_id, d.source,
             unnest(string_split(d.text, ' ')) AS word
      FROM documents d, ab
      WHERE d.source IN (ab.sa, ab.sb)),
wp AS (SELECT word,
              SUM(CASE WHEN source = ab.sa THEN 1 ELSE 0 END)
                AS tfa,
              SUM(CASE WHEN source = ab.sb THEN 1 ELSE 0 END)
                AS tfb,
              COUNT(DISTINCT CASE WHEN source = ab.sa
                    THEN doc_id END) AS da,
              COUNT(DISTINCT CASE WHEN source = ab.sb
                    THEN doc_id END) AS db_
       FROM w, ab WHERE word <> '' GROUP BY 1)
"""


def q_craigs_zeta_sources(sf_dir: str):
    """Craig's Zeta marker words between the two largest sources —
    stylometry's segment-presence discriminator (Burrows' Delta
    compares frequency profiles; Zeta asks which words source A
    USES AT ALL that B avoids): ζ(w) = P(A-doc contains w) +
    1 − P(B-doc contains w), ranked by the EXACT integer key
    ζ·n_a·n_b = d_a·n_b + n_a·n_b − d_b·n_a so no float ordering;
    top 15 A-markers with their exact document counts."""
    src_a, src_b, na, nb, wp = _two_source_word_panel(sf_dir)
    wp = wp.copy()
    wp["key"] = wp["da"].astype(object) * nb + na * nb \
        - wp["db_"].astype(object) * na
    top = wp.sort_values(["key", "word"],
                         ascending=[False, True]).head(15)
    return pd.DataFrame({
        "word": top["word"],
        "docs_a": top["da"].astype(np.int64),
        "docs_b": top["db_"].astype(np.int64),
        "zeta": np.round(top["da"].to_numpy(np.float64) / na
                         + 1.0
                         - top["db_"].to_numpy(np.float64) / nb,
                         6)})


def _sql_zeta() -> str:
    return f"""
WITH {SQL_TWO_SRC_CTE.strip()}
SELECT word, CAST(da AS BIGINT) AS docs_a,
       CAST(db_ AS BIGINT) AS docs_b,
       ROUND(CAST(da AS DOUBLE) / ab.na + 1.0
             - CAST(db_ AS DOUBLE) / ab.nb, 6) AS zeta
FROM wp, ab
ORDER BY da * ab.nb + ab.na * ab.nb - db_ * ab.na DESC, word
LIMIT 15
"""


def q_fightin_words_sources(sf_dir: str):
    """Monroe/Colaresi/Quinn 'fightin' words' between the two largest
    sources — the log-odds-with-Dirichlet-prior z-scores that fixed
    both raw-ratio noise (rare words explode) and tf-idf's silence
    on WHICH side a word belongs to: prior α_w = α₀·bg_w/bg_total
    (α₀ = 500, bg = both sides pooled), δ_w the smoothed log-odds
    difference, z = δ/√(1/(y_a+α) + 1/(y_b+α)); words with pooled
    count < 5 dropped (stated).  Per-word z nano-quantized for the
    exact ordering; up to 10 strongest per side, each side
    restricted to its own sign so the lists are disjoint."""
    import math
    src_a, src_b, na, nb, wp = _two_source_word_panel(sf_dir)
    # side totals over the FULL vocabulary (the twin's tot CTE),
    # before the pooled-count filter
    n_a = int(wp["tfa"].sum())
    n_b = int(wp["tfb"].sum())
    bg_tot = n_a + n_b
    wp = wp[(wp["tfa"] + wp["tfb"]) >= 5].copy()
    ya = wp["tfa"].to_numpy(np.int64)
    yb = wp["tfb"].to_numpy(np.int64)
    a0 = 500.0
    z9 = np.empty(len(wp), dtype=np.int64)
    for i in range(len(wp)):
        aw = a0 * float(int(ya[i]) + int(yb[i])) / float(bg_tot)
        la = math.log((ya[i] + aw) / (n_a + a0 - ya[i] - aw))
        lb = math.log((yb[i] + aw) / (n_b + a0 - yb[i] - aw))
        var = 1.0 / (ya[i] + aw) + 1.0 / (yb[i] + aw)
        z9[i] = int(np.floor((la - lb) / math.sqrt(var) * 1e9
                             + 0.5))
    wp["z9"] = z9
    hi = wp[wp["z9"] > 0].sort_values(
        ["z9", "word"], ascending=[False, True]).head(10)
    lo = wp[wp["z9"] < 0].sort_values(
        ["z9", "word"], ascending=[True, True]).head(10)
    hi = hi.assign(side="a")
    lo = lo.assign(side="b")
    out = pd.concat([hi, lo])
    return pd.DataFrame({
        "word": out["word"], "side": out["side"],
        "count_a": out["tfa"].astype(np.int64),
        "count_b": out["tfb"].astype(np.int64),
        "zscore": (out["z9"] / 1e9).round(6)})


def _sql_fightin() -> str:
    return f"""
WITH {SQL_TWO_SRC_CTE.strip()},
tot AS (SELECT SUM(tfa) AS n_a, SUM(tfb) AS n_b FROM wp),
q AS (SELECT word, tfa, tfb,
             500.0 * CAST(tfa + tfb AS DOUBLE)
             / CAST(tot.n_a + tot.n_b AS DOUBLE) AS aw,
             CAST(tot.n_a AS DOUBLE) AS n_a,
             CAST(tot.n_b AS DOUBLE) AS n_b
      FROM wp, tot WHERE tfa + tfb >= 5),
z AS (SELECT word, tfa, tfb,
             CAST(FLOOR((LN((tfa + aw) / (n_a + 500.0 - tfa - aw))
                         - LN((tfb + aw)
                              / (n_b + 500.0 - tfb - aw)))
                        / SQRT(1.0 / (tfa + aw) + 1.0 / (tfb + aw))
                        * 1e9 + 0.5) AS BIGINT) AS z9
      FROM q),
hi AS (SELECT word, 'a' AS side, tfa, tfb, z9
       FROM z WHERE z9 > 0 ORDER BY z9 DESC, word LIMIT 10),
lo AS (SELECT word, 'b' AS side, tfa, tfb, z9
       FROM z WHERE z9 < 0 ORDER BY z9 ASC, word LIMIT 10)
SELECT word, side, CAST(tfa AS BIGINT) AS count_a,
       CAST(tfb AS BIGINT) AS count_b,
       ROUND(z9 / 1e9, 6) AS zscore
FROM (SELECT * FROM hi UNION ALL SELECT * FROM lo)
"""


def q_chao1_richness_sources(sf_dir: str):
    """Chao1 species-richness estimator per source — ecology's
    lower-bound answer to 'how many words does this source REALLY
    use?' from the hapax/dis-legomena spectrum: Ŝ = V + V1²/(2·V2)
    (the bias-corrected V + V1(V1−1)/(2(V2+1)) when V2 = 0, stated)
    — the unseen-VOCABULARY companion to the registry's Good–Turing
    unseen-MASS op.  Exact integer spectrum inputs from the shared
    panel, one mirrored division each."""
    sp = _source_vocab_spectrum(sf_dir)
    rows = []
    for r in sp.itertuples(index=False):
        v, v1, v2 = int(r.v), int(r.v1), int(r.v2)
        if v2 > 0:
            est = v + float(v1 * v1) / float(2 * v2)
        else:
            est = v + float(v1 * (v1 - 1)) / 2.0
        rows.append({"source": r.source, "vocab": v, "hapax": v1,
                     "dis_legomena": v2,
                     "chao1": np.round(est, 6)})
    return pd.DataFrame(rows).astype({
        "vocab": np.int64, "hapax": np.int64,
        "dis_legomena": np.int64})


def _sql_chao1() -> str:
    return f"""
WITH {SQL_VSPEC_CTE.strip()}
SELECT source, v AS vocab, v1 AS hapax, v2 AS dis_legomena,
       CASE WHEN v2 > 0
            THEN ROUND(v + CAST(v1 * v1 AS DOUBLE) / (2 * v2), 6)
            ELSE ROUND(v + CAST(v1 * (v1 - 1) AS DOUBLE) / 2.0, 6)
       END AS chao1
FROM sp ORDER BY source
"""


def q_burts_constraint_links(sf_dir: str):
    """Burt's structural-holes constraint + effective size on the
    symmetrized links graph — the social-capital pair behind the
    brokerage literature (LOW constraint = you bridge disconnected
    contacts): constraint_i = Σ_j (p_ij + Σ_q p_iq·p_qj)² with
    p = 1/degree, the inner two-path terms nano-quantized per
    (i, j, q) so the fold is order-free; effective size by the
    Borgatti simplification deg − 2t/deg with t_i the exact
    neighbor-edge count.  Top 20 lowest-constraint brokers."""
    from ray.data.aggregate import Sum
    from ...stages.graph_ops import _normalize_undirected
    edges, n = _synthetic_links(sf_dir)
    und = relational.ds_to_table(
        _normalize_undirected(edges, "src", "dst")).to_pandas() \
        .drop_duplicates(subset=["ea", "eb"])
    ea = und["ea"].to_numpy(np.int64)
    eb = und["eb"].to_numpy(np.int64)
    import collections
    adj = collections.defaultdict(set)
    for u, v in zip(ea, eb):
        if u != v:
            adj[int(u)].add(int(v))
            adj[int(v)].add(int(u))
    rows = []
    for i, nb in adj.items():
        deg = len(nb)
        t_i = 0
        con9 = 0
        for j in nb:
            inner9 = 0
            for q_ in nb & adj[j]:
                inner9 += int(np.floor(
                    1.0 / deg / len(adj[q_]) * 1e9 + 0.5))
            t_i += len(nb & adj[j])
            term = 1.0 / deg + inner9 / 1e9
            con9 += int(np.floor(term * term * 1e9 + 0.5))
        t_i //= 2
        es = deg - 2.0 * t_i / deg
        rows.append({"node": i, "degree": deg,
                     "n_neighbor_edges": t_i,
                     "eff_size": np.round(es, 6),
                     "burt_constraint": np.round(con9 / 1e9, 6)})
    df = pd.DataFrame(rows).sort_values(
        ["burt_constraint", "node"]).head(20).reset_index(drop=True)
    return df.astype({"node": np.int64, "degree": np.int64,
                      "n_neighbor_edges": np.int64})


def _sql_burts() -> str:
    return f"""
WITH {_SQL_LINKS_CTE.strip()},
ded AS (SELECT DISTINCT u, v FROM (
          SELECT LEAST(src, dst) AS u, GREATEST(src, dst) AS v
          FROM raw WHERE src <> dst)),
adj AS (SELECT u AS i, v AS j FROM ded
        UNION ALL SELECT v, u FROM ded),
deg AS (SELECT i, CAST(COUNT(*) AS BIGINT) AS d FROM adj
        GROUP BY 1),
inner_ AS (SELECT a.i, a.j,
                  SUM(CAST(FLOOR(1.0 / di.d / dq.d * 1e9 + 0.5)
                           AS BIGINT)) AS in9
           FROM adj a
           JOIN adj b ON b.i = a.i
           JOIN adj c ON c.i = a.j AND c.j = b.j
           JOIN deg di ON di.i = a.i
           JOIN deg dq ON dq.i = b.j
           GROUP BY 1, 2),
term AS (SELECT a.i,
                CAST(FLOOR((1.0 / di.d
                            + COALESCE(inner_.in9, 0) / 1e9)
                           * (1.0 / di.d
                              + COALESCE(inner_.in9, 0) / 1e9)
                           * 1e9 + 0.5) AS BIGINT) AS c9
         FROM adj a
         JOIN deg di ON di.i = a.i
         LEFT JOIN inner_ ON inner_.i = a.i AND inner_.j = a.j),
tri AS (SELECT a.i, CAST(COUNT(*) // 2 AS BIGINT) AS t
        FROM adj a JOIN adj b ON b.i = a.i AND b.j <> a.j
        JOIN ded d ON d.u = LEAST(a.j, b.j)
                  AND d.v = GREATEST(a.j, b.j)
        GROUP BY 1),
f AS (SELECT deg.i AS node, deg.d AS degree,
             COALESCE(tri.t, 0) AS t,
             (SELECT SUM(c9) FROM term WHERE term.i = deg.i) AS con9
      FROM deg LEFT JOIN tri ON tri.i = deg.i)
SELECT node, degree, t AS n_neighbor_edges,
       ROUND(degree - 2.0 * t / degree, 6) AS eff_size,
       ROUND(con9 / 1e9, 6) AS burt_constraint
FROM f ORDER BY con9, node LIMIT 20
"""


def q_hill_numbers_sources(sf_dir: str):
    """Hill-number diversity profile per source — ecology's unified
    ladder (D0 = richness, D1 = exp Shannon, D2 = inverse Simpson;
    one framework where richness/entropy/concentration were three
    ops): exact (source, word) counts, D2 from exact integer Σc²
    (the Yule panel's moment), D1 from per-word −p·ln p terms
    nano-quantized against the exact per-source token totals.  The
    D0 ≥ D1 ≥ D2 ordering is a built-in sanity invariant."""
    import math
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["source", "text"])

    def tok_partial(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t["text"], pattern=" ")
        lens = pc.list_value_length(parts).to_numpy(
            zero_copy_only=False).astype(np.int64)
        src = np.repeat(t["source"].to_numpy(zero_copy_only=False),
                        lens)
        w = pc.list_flatten(parts).to_numpy(zero_copy_only=False)
        g = pd.DataFrame({"source": src, "w": w, "c": 1}) \
            .groupby(["source", "w"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    wc = relational.ds_to_table(
        docs.map_batches(tok_partial, batch_format="pyarrow")
        .groupby(["source", "w"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    tot = wc.groupby("source")["c"].sum()
    rows = []
    for s_, g in wc.groupby("source"):
        nn = int(tot.loc[s_])
        c = g["c"].to_numpy(np.int64)
        d0 = len(c)
        s2 = int((c.astype(object) ** 2).sum())
        h9 = 0
        for cv in c:
            p = float(int(cv)) / nn
            h9 += int(np.floor(-p * math.log(p) * 1e9 + 0.5))
        d1 = math.exp(h9 / 1e9)
        d2 = float(nn) * nn / float(s2)
        rows.append({"source": s_, "n_tokens": nn, "d0_richness": d0,
                     "d1_exp_shannon": np.round(d1, 6),
                     "d2_inv_simpson": np.round(d2, 6)})
    return pd.DataFrame(rows).sort_values("source") \
        .reset_index(drop=True).astype({
            "n_tokens": np.int64, "d0_richness": np.int64})


SQL_HILL_NUMBERS = """
WITH tok AS (SELECT source, unnest(string_split(text, ' ')) AS w
             FROM documents),
wc AS (SELECT source, w, CAST(COUNT(*) AS BIGINT) AS c
       FROM tok GROUP BY 1, 2),
tt AS (SELECT source, CAST(SUM(c) AS BIGINT) AS nn FROM wc
       GROUP BY 1),
s AS (SELECT wc.source, tt.nn,
             CAST(COUNT(*) AS BIGINT) AS d0,
             SUM(CAST(wc.c AS HUGEINT) * wc.c) AS s2,
             SUM(CAST(FLOOR(-(CAST(wc.c AS DOUBLE) / tt.nn)
                            * LN(CAST(wc.c AS DOUBLE) / tt.nn)
                            * 1e9 + 0.5) AS BIGINT)) AS h9
      FROM wc JOIN tt USING (source)
      GROUP BY 1, 2)
SELECT source, nn AS n_tokens, d0 AS d0_richness,
       ROUND(EXP(h9 / 1e9), 6) AS d1_exp_shannon,
       ROUND(CAST(nn AS DOUBLE) * nn / CAST(s2 AS DOUBLE), 6)
         AS d2_inv_simpson
FROM s ORDER BY source
"""


def _token_pair_panel(sf_dir: str) -> pd.DataFrame:
    """Shared method-comparison panel: per doc the two token
    measures (whitespace vs BPE-ish regex, both RE2) — the classic
    'two instruments measuring one quantity' setup on data the
    engine already ships.  Bounded by the documents table."""
    from ...stages import text as tx
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = relational.ds_to_table(
        docs.map_batches(tx.token_count_batch,
                         batch_format="pyarrow")
        .select_columns(["doc_id", "tokens_ws", "tokens_re"])
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    return out


SQL_TOKEN_PAIR_CTE = r"""
tp AS (SELECT doc_id,
              CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT)
                AS x,
              CAST(len(regexp_extract_all(text, '\w+|[^\w\s]'))
                   AS BIGINT) AS y
       FROM documents)
"""


def q_lin_ccc_tokens(sf_dir: str):
    """Lin's concordance correlation coefficient between the two
    token measures — THE agreement statistic (Pearson r asks 'do
    they co-vary?'; CCC asks 'do they AGREE?', punishing both
    location and scale shifts): with n-scaled central moments the
    whole statistic clears to the EXACT integer ratio
    ρ_c = 2·C_xy / (C_xx + C_yy + (S_x − S_y)²) — one division."""
    import math
    p = _token_pair_panel(sf_dir)
    x = p["tokens_ws"].to_numpy(np.int64).astype(object)
    y = p["tokens_re"].to_numpy(np.int64).astype(object)
    n = len(p)
    sx, sy = int(x.sum()), int(y.sum())
    cxx = n * int((x * x).sum()) - sx * sx
    cyy = n * int((y * y).sum()) - sy * sy
    cxy = n * int((x * y).sum()) - sx * sy
    return pd.DataFrame([{
        "n_docs": n,
        "ccc": np.round(float(2 * cxy)
                        / float(cxx + cyy + (sx - sy) ** 2), 6),
        "pearson_r": np.round(
            float(cxy) / (math.sqrt(float(cxx))
                          * math.sqrt(float(cyy))), 6)}]).astype({
            "n_docs": np.int64})


def _sql_lin_ccc() -> str:
    return f"""
WITH {SQL_TOKEN_PAIR_CTE.strip()},
t AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(x) AS sx,
             SUM(y) AS sy, SUM(x * x) AS sxx, SUM(y * y) AS syy,
             SUM(x * y) AS sxy
      FROM tp),
c AS (SELECT CAST(n AS BIGINT) AS n,
             n * sxx - sx * sx AS cxx, n * syy - sy * sy AS cyy,
             n * sxy - sx * sy AS cxy,
             (sx - sy) * (sx - sy) AS d2
      FROM t)
SELECT n AS n_docs,
       ROUND(CAST(2 * cxy AS DOUBLE)
             / CAST(cxx + cyy + d2 AS DOUBLE), 6) AS ccc,
       ROUND(CAST(cxy AS DOUBLE)
             / (SQRT(CAST(cxx AS DOUBLE))
                * SQRT(CAST(cyy AS DOUBLE))), 6) AS pearson_r
FROM c
"""


def q_bland_altman_tokens(sf_dir: str):
    """Bland–Altman limits of agreement between the two token
    measures — the 1986 method-comparison standard (one of the
    most-cited statistics papers ever; correlation can be 0.99 while
    the methods disagree by 50%): per-doc differences are exact
    integers, bias = Σd/n, LoA = bias ± 1.96·s_d (sample sd), and
    the outside-LoA count is an integer-vs-limit compare identical
    in both engines."""
    import math
    p = _token_pair_panel(sf_dir)
    d_ = (p["tokens_ws"].to_numpy(np.int64)
          - p["tokens_re"].to_numpy(np.int64)).astype(object)
    n = len(d_)
    sd1 = int(d_.sum())
    sd2 = int((d_ * d_).sum())
    bias = float(sd1) / n
    s = math.sqrt(float(n * sd2 - sd1 * sd1) / (float(n) * (n - 1)))
    lo = bias - 1.96 * s
    hi = bias + 1.96 * s
    dv = d_.astype(np.float64)
    n_out = int(((dv < lo) | (dv > hi)).sum())
    return pd.DataFrame([{
        "n_docs": n, "bias": np.round(bias, 6),
        "sd_diff": np.round(s, 6), "loa_lo": np.round(lo, 6),
        "loa_hi": np.round(hi, 6), "n_outside": n_out}]).astype({
            "n_docs": np.int64, "n_outside": np.int64})


def _sql_bland_altman() -> str:
    return f"""
WITH {SQL_TOKEN_PAIR_CTE.strip()},
d AS (SELECT x - y AS d FROM tp),
t AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(CAST(d AS HUGEINT))
        AS s1,
             SUM(CAST(d AS HUGEINT) * d) AS s2
      FROM d),
f AS (SELECT CAST(n AS BIGINT) AS n,
             CAST(s1 AS DOUBLE) / CAST(n AS BIGINT) AS bias,
             SQRT(CAST(n * s2 - s1 * s1 AS DOUBLE)
                  / (CAST(n AS DOUBLE) * (CAST(n AS BIGINT) - 1)))
               AS s
      FROM t)
SELECT f.n AS n_docs, ROUND(f.bias, 6) AS bias,
       ROUND(f.s, 6) AS sd_diff,
       ROUND(f.bias - 1.96 * f.s, 6) AS loa_lo,
       ROUND(f.bias + 1.96 * f.s, 6) AS loa_hi,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM d, f
        WHERE d.d < f.bias - 1.96 * f.s
           OR d.d > f.bias + 1.96 * f.s) AS n_outside
FROM f
"""


def q_passing_bablok_tokens(sf_dir: str):
    """Passing–Bablok regression between the two token measures —
    lab medicine's robust method-comparison line (no error-free-X
    assumption, outlier-proof): slope = the type-1 lower median of
    all defined pairwise slopes (undefined Δx = 0 pairs dropped, the
    stated simplification of the full offset-K procedure), each
    slope NANO-QUANTIZED for an exact order; intercept = the median
    of y − b·x at the selected slope.  O(n²) pairs on the bounded
    documents panel (stated)."""
    p = _token_pair_panel(sf_dir)
    x = p["tokens_ws"].to_numpy(np.int64)
    y = p["tokens_re"].to_numpy(np.int64)
    n = len(p)
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    iu = np.triu_indices(n, k=1)
    dxl, dyl = dx[iu], dy[iu]
    keep = dxl != 0
    s9 = np.floor(dyl[keep].astype(np.float64)
                  / dxl[keep].astype(np.float64) * 1e9
                  + 0.5).astype(np.int64)
    s9.sort()
    k = len(s9)
    b9 = int(s9[(k - 1) // 2])
    b = b9 / 1e9
    ic9 = np.floor((y.astype(np.float64) - b
                    * x.astype(np.float64)) * 1e9
                   + 0.5).astype(np.int64)
    ic9.sort()
    a9 = int(ic9[(n - 1) // 2])
    return pd.DataFrame([{
        "n_docs": n, "n_slopes": k,
        "slope": np.round(b9 / 1e9, 6),
        "intercept": np.round(a9 / 1e9, 6)}]).astype({
            "n_docs": np.int64, "n_slopes": np.int64})


def _sql_passing_bablok() -> str:
    return f"""
WITH {SQL_TOKEN_PAIR_CTE.strip()},
pr AS (SELECT CAST(FLOOR(CAST(b.y - a.y AS DOUBLE)
                         / CAST(b.x - a.x AS DOUBLE) * 1e9 + 0.5)
                   AS BIGINT) AS s9
       FROM tp a JOIN tp b ON a.doc_id < b.doc_id
       WHERE b.x <> a.x),
ms AS (SELECT s9, ROW_NUMBER() OVER (ORDER BY s9) AS rn,
              COUNT(*) OVER () AS k
       FROM pr),
b AS (SELECT s9, k FROM ms WHERE rn = (k - 1) // 2 + 1),
ic AS (SELECT CAST(FLOOR((CAST(tp.y AS DOUBLE)
                          - (b.s9 / 1e9) * CAST(tp.x AS DOUBLE))
                         * 1e9 + 0.5) AS BIGINT) AS a9
       FROM tp, b),
mi AS (SELECT a9, ROW_NUMBER() OVER (ORDER BY a9) AS rn,
              COUNT(*) OVER () AS n
       FROM ic),
a AS (SELECT a9, n FROM mi WHERE rn = (n - 1) // 2 + 1)
SELECT CAST(a.n AS BIGINT) AS n_docs, CAST(b.k AS BIGINT)
         AS n_slopes,
       ROUND(b.s9 / 1e9, 6) AS slope,
       ROUND(a.a9 / 1e9, 6) AS intercept
FROM b, a
"""


def q_readability_lix_ari(sf_dir: str):
    """LIX / RIX / ARI / Coleman–Liau readability panel per source —
    the four indices that need NO syllable guessing (Björnsson's
    long-word counts and pure letter/word/sentence ratios), beside
    the registry's Flesch op: words = \\S+ runs, sentences = [.!?]+
    runs, long words = \\S{{7,}}, letters = [A-Za-z] — all exact RE2
    counts aggregated per source, four mirrored float chains."""
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["source", "text"])

    def partial(t: pa.Table) -> pa.Table:
        arr = t["text"]
        w = pc.count_substring_regex(arr, pattern=r"\S+") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        s_ = pc.count_substring_regex(arr, pattern=r"[.!?]+") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        lw = pc.count_substring_regex(arr, pattern=r"\S{7,}") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        lt = pc.count_substring_regex(arr, pattern=r"[A-Za-z]") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        g = pd.DataFrame({"source": t["source"].to_numpy(
            zero_copy_only=False), "w": w, "s": s_, "lw": lw,
            "lt": lt}) \
            .groupby("source", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    g = relational.ds_to_table(
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("source").aggregate(
            Sum("w", alias_name="w"), Sum("s", alias_name="s"),
            Sum("lw", alias_name="lw"), Sum("lt", alias_name="lt"))
    ).to_pandas().sort_values("source").reset_index(drop=True)
    w = g["w"].to_numpy(np.int64).astype(np.float64)
    s_ = np.maximum(g["s"].to_numpy(np.int64), 1).astype(np.float64)
    lw = g["lw"].to_numpy(np.int64).astype(np.float64)
    lt = g["lt"].to_numpy(np.int64).astype(np.float64)
    lix = w / s_ + 100.0 * lw / w
    rix = lw / s_
    ari = 4.71 * (lt / w) + 0.5 * (w / s_) - 21.43
    cli = 5.88 * (lt / w) - 29.6 * (s_ / w) - 15.8
    return pd.DataFrame({
        "source": g["source"],
        "n_words": g["w"].astype(np.int64),
        "n_sentences": g["s"].astype(np.int64),
        "lix": np.round(lix, 6), "rix": np.round(rix, 6),
        "ari": np.round(ari, 6),
        "coleman_liau": np.round(cli, 6)})


SQL_READABILITY_LIX = r"""
WITH g AS (SELECT source,
             CAST(SUM(len(regexp_extract_all(text, '\S+')))
                  AS BIGINT) AS w,
             CAST(SUM(len(regexp_extract_all(text, '[.!?]+')))
                  AS BIGINT) AS s,
             CAST(SUM(len(regexp_extract_all(text, '\S{7,}')))
                  AS BIGINT) AS lw,
             CAST(SUM(len(regexp_extract_all(text, '[A-Za-z]')))
                  AS BIGINT) AS lt
           FROM documents GROUP BY 1),
f AS (SELECT source, w, s,
             CAST(w AS DOUBLE) AS wf,
             CAST(GREATEST(s, 1) AS DOUBLE) AS sf,
             CAST(lw AS DOUBLE) AS lwf, CAST(lt AS DOUBLE) AS ltf
      FROM g)
SELECT source, w AS n_words, s AS n_sentences,
       ROUND(wf / sf + 100.0 * lwf / wf, 6) AS lix,
       ROUND(lwf / sf, 6) AS rix,
       ROUND(4.71 * (ltf / wf) + 0.5 * (wf / sf) - 21.43, 6)
         AS ari,
       ROUND(5.88 * (ltf / wf) - 29.6 * (sf / wf) - 15.8, 6)
         AS coleman_liau
FROM f ORDER BY source
"""


def q_rarefaction_sources(sf_dir: str):
    """Rarefaction — expected vocabulary at equal subsample sizes
    m ∈ {100, 500} per source — ecology's fair-comparison tool
    (raw richness is a sample-size artifact; rarefy everyone to the
    same m and compare honestly): E[S_m] = Σ_w (1 − C(N−c_w, m)/
    C(N, m)), each hypergeometric ratio via the four-lgamma chain
    (identical libm lgamma in both engines) nano-quantized so the
    vocabulary fold is order-free; sources with N < m skip that m
    (stated)."""
    import math
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["source", "text"])

    def tok_partial(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t["text"], pattern=" ")
        lens = pc.list_value_length(parts).to_numpy(
            zero_copy_only=False).astype(np.int64)
        src = np.repeat(t["source"].to_numpy(zero_copy_only=False),
                        lens)
        w = pc.list_flatten(parts).to_numpy(zero_copy_only=False)
        g = pd.DataFrame({"source": src, "w": w, "c": 1}) \
            .groupby(["source", "w"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    wc = relational.ds_to_table(
        docs.map_batches(tok_partial, batch_format="pyarrow")
        .groupby(["source", "w"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    tot = wc.groupby("source")["c"].sum()
    rows = []
    for s_, g in wc.groupby("source"):
        nn = int(tot.loc[s_])
        cs = g["c"].to_numpy(np.int64)
        for m_ in (100, 500):
            if nn < m_:
                continue
            acc9 = 0
            for cv in cs:
                c_ = int(cv)
                if nn - c_ < m_:
                    term = 1.0
                else:
                    lr = math.lgamma(nn - c_ + 1) \
                        - math.lgamma(nn - c_ - m_ + 1) \
                        - math.lgamma(nn + 1) \
                        + math.lgamma(nn - m_ + 1)
                    term = 1.0 - math.exp(lr)
                acc9 += int(np.floor(term * 1e9 + 0.5))
            rows.append({"source": s_, "m": m_, "n_tokens": nn,
                         "vocab": len(cs),
                         "expected_vocab": np.round(acc9 / 1e9, 6)})
    return pd.DataFrame(rows).sort_values(["source", "m"]) \
        .reset_index(drop=True).astype({
            "m": np.int64, "n_tokens": np.int64,
            "vocab": np.int64})


SQL_RAREFACTION = """
WITH tok AS (SELECT source, unnest(string_split(text, ' ')) AS w
             FROM documents),
wc AS (SELECT source, w, CAST(COUNT(*) AS BIGINT) AS c
       FROM tok GROUP BY 1, 2),
tt AS (SELECT source, CAST(SUM(c) AS BIGINT) AS nn,
              CAST(COUNT(*) AS BIGINT) AS v
       FROM wc GROUP BY 1),
mm AS (SELECT m FROM (VALUES (100), (500)) x(m)),
q AS (SELECT wc.source, mm.m, tt.nn, tt.v,
             CASE WHEN tt.nn - wc.c < mm.m THEN 1000000000
                  ELSE CAST(FLOOR((1.0 - EXP(
                    LGAMMA(CAST(tt.nn - wc.c + 1 AS DOUBLE))
                    - LGAMMA(CAST(tt.nn - wc.c - mm.m + 1
                                  AS DOUBLE))
                    - LGAMMA(CAST(tt.nn + 1 AS DOUBLE))
                    + LGAMMA(CAST(tt.nn - mm.m + 1 AS DOUBLE))))
                    * 1e9 + 0.5) AS BIGINT) END AS t9
      FROM wc JOIN tt USING (source), mm
      WHERE tt.nn >= mm.m)
SELECT source, CAST(m AS BIGINT) AS m, nn AS n_tokens, v AS vocab,
       ROUND(SUM(t9) / 1e9, 6) AS expected_vocab
FROM q GROUP BY 1, 2, 3, 4 ORDER BY source, m
"""


def q_ace_richness_sources(sf_dir: str):
    """ACE (abundance-based coverage estimator) richness per source
    — Chao's OTHER estimator, shipped beside Chao1 in every ecology
    package (Chao1 uses only F₁/F₂; ACE uses the whole rare tail
    F₁..F₁₀): sample coverage Ĉ = 1 − F₁/N_rare, γ² from the exact
    rare-abundance moments, Ŝ = S_abund + S_rare/Ĉ + F₁γ²/Ĉ.  All
    spectrum inputs exact integers off one (source, word) reduce;
    the γ² ratio chain is mirrored; F₁ = N_rare (all singletons)
    degenerates to the Chao1 fallback by the stated guard."""
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["source", "text"])

    def tok_partial(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t["text"], pattern=" ")
        lens = pc.list_value_length(parts).to_numpy(
            zero_copy_only=False).astype(np.int64)
        src = np.repeat(t["source"].to_numpy(zero_copy_only=False),
                        lens)
        w = pc.list_flatten(parts).to_numpy(zero_copy_only=False)
        g = pd.DataFrame({"source": src, "w": w, "c": 1}) \
            .groupby(["source", "w"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    wc = relational.ds_to_table(
        docs.map_batches(tok_partial, batch_format="pyarrow")
        .groupby(["source", "w"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    rows = []
    for s_, g in wc.groupby("source"):
        c = g["c"].to_numpy(np.int64)
        rare = c[c <= 10]
        s_ab = int((c > 10).sum())
        s_ra = len(rare)
        n_ra = int(rare.sum())
        f1 = int((rare == 1).sum())
        sumk = sum(int(k) * (int(k) - 1)
                   * int((rare == k).sum()) for k in range(1, 11))
        if n_ra == 0 or f1 == n_ra:
            f2 = int((rare == 2).sum())
            if f2 > 0:
                est = len(c) + float(f1 * f1) / float(2 * f2)
            else:
                est = len(c) + float(f1 * (f1 - 1)) / 2.0
            rows.append({"source": s_, "vocab": len(c),
                         "ace": np.round(est, 6),
                         "coverage": 0.0})
            continue
        ch = 1.0 - float(f1) / float(n_ra)
        g2 = max(0.0, (s_ra / ch) * float(sumk)
                 / (float(n_ra) * (n_ra - 1)) - 1.0)
        est = s_ab + s_ra / ch + f1 * g2 / ch
        rows.append({"source": s_, "vocab": len(c),
                     "ace": np.round(est, 6),
                     "coverage": np.round(ch, 6)})
    return pd.DataFrame(rows).sort_values("source") \
        .reset_index(drop=True).astype({"vocab": np.int64})


SQL_ACE_RICHNESS = """
WITH tok AS (SELECT source, unnest(string_split(text, ' ')) AS w
             FROM documents),
wc AS (SELECT source, w, CAST(COUNT(*) AS BIGINT) AS c
       FROM tok GROUP BY 1, 2),
sp AS (SELECT source,
              CAST(COUNT(*) AS BIGINT) AS v,
              CAST(SUM(CASE WHEN c > 10 THEN 1 ELSE 0 END)
                   AS BIGINT) AS s_ab,
              CAST(SUM(CASE WHEN c <= 10 THEN 1 ELSE 0 END)
                   AS BIGINT) AS s_ra,
              CAST(SUM(CASE WHEN c <= 10 THEN c ELSE 0 END)
                   AS BIGINT) AS n_ra,
              CAST(SUM(CASE WHEN c = 1 THEN 1 ELSE 0 END)
                   AS BIGINT) AS f1,
              CAST(SUM(CASE WHEN c = 2 THEN 1 ELSE 0 END)
                   AS BIGINT) AS f2,
              CAST(SUM(CASE WHEN c <= 10 THEN c * (c - 1) ELSE 0
                       END) AS BIGINT) AS sumk
       FROM wc GROUP BY 1)
SELECT source, v AS vocab,
       CASE WHEN n_ra = 0 OR f1 = n_ra THEN
         CASE WHEN f2 > 0
              THEN ROUND(v + CAST(f1 * f1 AS DOUBLE) / (2 * f2), 6)
              ELSE ROUND(v + CAST(f1 * (f1 - 1) AS DOUBLE) / 2.0,
                         6) END
       ELSE ROUND(s_ab
         + s_ra / (1.0 - CAST(f1 AS DOUBLE) / n_ra)
         + f1 * GREATEST(0.0,
             (s_ra / (1.0 - CAST(f1 AS DOUBLE) / n_ra))
             * CAST(sumk AS DOUBLE)
             / (CAST(n_ra AS DOUBLE) * (n_ra - 1)) - 1.0)
           / (1.0 - CAST(f1 AS DOUBLE) / n_ra), 6) END AS ace,
       CASE WHEN n_ra = 0 OR f1 = n_ra THEN 0.0
            ELSE ROUND(1.0 - CAST(f1 AS DOUBLE) / n_ra, 6) END
         AS coverage
FROM sp ORDER BY source
"""


def _doc_score_counts(sf_dir: str) -> pd.DataFrame:
    """Shared (score6, pos, neg) counts panel for the calibration
    family — the AUC op's bounded reduce with the 6-dp score carried
    as an exact integer micro-score."""
    from ray.data.aggregate import Sum
    ds = _doc_logreg_scored(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        s6 = np.round(t["score"].to_numpy(zero_copy_only=False)
                      * 1e6).astype(np.int64)
        lab = t["label"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        g = pd.DataFrame({"s6": s6, "np_": lab, "nn_": 1 - lab}) \
            .groupby("s6", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    return relational.ds_to_table(
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("s6").aggregate(Sum("np_", alias_name="np_"),
                                 Sum("nn_", alias_name="nn_"))
    ).to_pandas().sort_values("s6").reset_index(drop=True)


SQL_DOC_SCORE_CTE = """
f AS (SELECT n_chars / 1000.0 AS x1,
             len(string_split(text, ' ')) / 100.0 AS x2,
             CASE WHEN n_chars > 297 THEN 1 ELSE 0 END AS label
      FROM documents),
sc AS (SELECT CAST(ROUND(ROUND(1.0 / (1.0 + exp(
                -(0.25 + 0.8 * x1 - 0.5 * x2))), 6) * 1e6)
              AS BIGINT) AS s6, label
       FROM f),
g AS (SELECT s6, CAST(SUM(label) AS BIGINT) AS np_,
             CAST(SUM(1 - label) AS BIGINT) AS nn_
      FROM sc GROUP BY 1)
"""


def q_hosmer_lemeshow_score(sf_dir: str):
    """Hosmer–Lemeshow goodness-of-calibration test for the document
    scorer — the classical chi² the ECE op's bins descend from
    (fixed-width 0.1 bins, stated variant): per bin the observed
    positives are exact integers and the EXPECTED positives are
    exact micro-score integer sums (the 6-dp scores make Σp a pure
    int), H = Σ (O−E)²/(E(1−E/n_b)) with empty/degenerate bins
    skipped and counted."""
    g = _doc_score_counts(sf_dir)
    g["bin"] = np.minimum(g["s6"] // 100_000, 9)
    rows = g.groupby("bin").agg(
        np_=("np_", "sum"), nn_=("nn_", "sum")).reset_index()
    e6 = g.assign(w=g["s6"] * (g["np_"] + g["nn_"])) \
        .groupby("bin")["w"].sum()
    h = 0.0
    used = 0
    skipped = 0
    for r in rows.itertuples(index=False):
        nb = int(r.np_) + int(r.nn_)
        if nb == 0:
            continue
        e1 = float(int(e6.loc[r.bin])) / 1e6
        if e1 <= 0 or e1 >= nb:
            skipped += 1
            continue
        used += 1
        o = float(int(r.np_))
        h += (o - e1) * (o - e1) / (e1 * (1.0 - e1 / nb))
    return pd.DataFrame([{
        "n_bins_used": used, "n_bins_skipped": skipped,
        "hl_chi2": np.round(h, 6)}]).astype({
            "n_bins_used": np.int64, "n_bins_skipped": np.int64})


def _sql_hosmer() -> str:
    return f"""
WITH {SQL_DOC_SCORE_CTE.strip()},
b AS (SELECT LEAST(s6 // 100000, 9) AS bin,
             CAST(SUM(np_) AS BIGINT) AS o1,
             CAST(SUM(np_ + nn_) AS BIGINT) AS nb,
             CAST(SUM(s6 * (np_ + nn_)) AS BIGINT) AS e6
      FROM g GROUP BY 1),
q AS (SELECT bin, o1, nb, CAST(e6 AS DOUBLE) / 1e6 AS e1 FROM b
      WHERE nb > 0),
u AS (SELECT
        CAST(SUM(CASE WHEN e1 > 0 AND e1 < nb THEN 1 ELSE 0 END)
             AS BIGINT) AS used,
        CAST(SUM(CASE WHEN e1 <= 0 OR e1 >= nb THEN 1 ELSE 0 END)
             AS BIGINT) AS skipped,
        SUM(CASE WHEN e1 > 0 AND e1 < nb
            THEN (CAST(o1 AS DOUBLE) - e1) * (CAST(o1 AS DOUBLE)
                                              - e1)
                 / (e1 * (1.0 - e1 / nb)) ELSE 0 END) AS h
      FROM q)
SELECT used AS n_bins_used, skipped AS n_bins_skipped,
       ROUND(h, 6) AS hl_chi2
FROM u
"""


def q_decision_curve_scores(sf_dir: str):
    """Decision-curve analysis (Vickers–Elkin 2006) for the document
    scorer — the clinical-utility view calibration and AUC both
    miss ('at MY risk threshold, does using the model beat treating
    everyone?'): net benefit NB(t) = TP/n − FP/n·t/(1−t) at
    t ∈ {0.1..0.9}, with the treat-all reference riding along; TP/FP
    are exact integer tail counts over the micro-score panel
    (threshold compare s6 ≥ t·1e6 is integer-exact)."""
    g = _doc_score_counts(sf_dir)
    n = int((g["np_"] + g["nn_"]).sum())
    pos = int(g["np_"].sum())
    rows = []
    for tt in range(1, 10):
        thr6 = tt * 100_000
        sel = g[g["s6"] >= thr6]
        tp = int(sel["np_"].sum())
        fp = int(sel["nn_"].sum())
        t = tt / 10.0
        odds = t / (1.0 - t)
        nb = float(tp) / n - float(fp) / n * odds
        nb_all = float(pos) / n - float(n - pos) / n * odds
        rows.append({"threshold": np.round(t, 1), "tp": tp,
                     "fp": fp, "net_benefit": np.round(nb, 6),
                     "nb_treat_all": np.round(nb_all, 6)})
    return pd.DataFrame(rows).astype({"tp": np.int64,
                                      "fp": np.int64})


def _sql_decision_curve() -> str:
    return f"""
WITH {SQL_DOC_SCORE_CTE.strip()},
n AS (SELECT CAST(SUM(np_ + nn_) AS BIGINT) AS n,
             CAST(SUM(np_) AS BIGINT) AS pos
      FROM g),
th AS (SELECT t FROM (VALUES (1), (2), (3), (4), (5), (6), (7),
                             (8), (9)) v(t)),
q AS (SELECT th.t,
             CAST(COALESCE(SUM(CASE WHEN g.s6 >= th.t * 100000
                           THEN g.np_ END), 0) AS BIGINT) AS tp,
             CAST(COALESCE(SUM(CASE WHEN g.s6 >= th.t * 100000
                           THEN g.nn_ END), 0) AS BIGINT) AS fp
      FROM th LEFT JOIN g ON TRUE GROUP BY 1)
SELECT ROUND(q.t / 10.0, 1) AS threshold, q.tp, q.fp,
       ROUND(CAST(q.tp AS DOUBLE) / n.n
             - CAST(q.fp AS DOUBLE) / n.n
               * ((q.t / 10.0) / (1.0 - q.t / 10.0)), 6)
         AS net_benefit,
       ROUND(CAST(n.pos AS DOUBLE) / n.n
             - CAST(n.n - n.pos AS DOUBLE) / n.n
               * ((q.t / 10.0) / (1.0 - q.t / 10.0)), 6)
         AS nb_treat_all
FROM q, n ORDER BY q.t
"""


def q_effective_rank_embeddings(sf_dir: str):
    """Participation-ratio effective rank of the embedding cloud —
    the intrinsic-dimension number behind every 'embeddings collapse'
    paper, computable WITHOUT an eigendecomposition (the trick:
    PR = (Σλ)²/Σλ² = trace(C)²/‖C‖²_F, and both trace and Frobenius
    norm fold from raw second moments): one streaming pass of
    per-batch Σx_d and Σx_d·x_e partials (dim² scalars), the
    centered Gram assembled on the driver, mirrored float finish.
    PR = dim for isotropic clouds, → 1 under collapse."""
    from ray.data.aggregate import Sum
    from ...stages.similarity import _as_matrix
    emb = _read(sf_dir, "embeddings", ["embedding"])
    dim = _SEM_DIM

    iu = np.triu_indices(dim)
    n_gram = len(iu[0])

    def partial(t: pa.Table) -> pa.Table:
        # long-form (k, val) partials: k < dim indexes the sum
        # vector, dim..dim+2079 the upper-triangle gram, the last
        # slot the row count — ONE keyed groupby instead of 2 145
        # aggregate objects (the wide version measured 35 s)
        m = _as_matrix(t["embedding"]).astype(np.float64)
        g = (m.T @ m)[iu]
        s = m.sum(axis=0)
        k = np.arange(dim + n_gram + 1, dtype=np.int64)
        v = np.concatenate([s, g, [float(len(m))]])
        return pa.table({"k": pa.array(k),
                         "v": pa.array(v, type=pa.float64())})

    agg = relational.ds_to_table(
        emb.map_batches(partial, batch_format="pyarrow")
        .groupby("k").aggregate(Sum("v", alias_name="v"))
    ).to_pandas().sort_values("k").reset_index(drop=True)
    v = agg["v"].to_numpy(np.float64)
    n = int(round(v[-1]))
    s = v[:dim]
    gm = np.zeros((dim, dim))
    gm[iu] = v[dim:dim + n_gram]
    gm[(iu[1], iu[0])] = v[dim:dim + n_gram]
    c = gm / n - np.outer(s / n, s / n)
    tr = float(np.trace(c))
    fro2 = float((c * c).sum())
    pr = tr * tr / fro2
    return pd.DataFrame([{
        "n_vectors": n, "dim": dim,
        "trace_cov": np.round(tr, 6),
        "effective_rank": np.round(pr, 6)}]).astype({
            "n_vectors": np.int64, "dim": np.int64})


_SQL_EFFECTIVE_RANK = """
WITH px AS (SELECT vec_id, i,
                   CAST(embedding[CAST(i AS INT)] AS DOUBLE) AS x
            FROM embeddings,
                 (SELECT unnest(generate_series(1, 64)) AS i) t),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM embeddings),
m AS (SELECT i, SUM(x) AS s FROM px GROUP BY 1),
g2 AS (SELECT a.i AS i, b.i AS j, SUM(a.x * b.x) AS g
       FROM px a JOIN px b ON a.vec_id = b.vec_id
       GROUP BY 1, 2),
c AS (SELECT g2.i, g2.j,
             g2.g / n.n - (mi.s / n.n) * (mj.s / n.n) AS c
      FROM g2 JOIN m mi ON mi.i = g2.i
      JOIN m mj ON mj.i = g2.j, n),
f AS (SELECT (SELECT SUM(c) FROM c WHERE i = j) AS tr,
             (SELECT SUM(c * c) FROM c) AS fro2,
             (SELECT n FROM n) AS n)
SELECT n AS n_vectors, CAST(64 AS BIGINT) AS dim,
       ROUND(tr, 6) AS trace_cov,
       ROUND(tr * tr / fro2, 6) AS effective_rank
FROM f
"""


def q_umass_coherence_top_words(sf_dir: str):
    """UMass topic coherence of the corpus' top-10 words — the
    standard automatic topic-quality score (Mimno 2011: do the top
    words actually CO-OCCUR in documents, or did frequency alone
    pick them?): C = Σ_{i<j} ln((D(wᵢ,wⱼ) + 1)/D(wⱼ)) over the
    frequency-ordered pairs, every D an exact integer document
    count from per-doc membership flags of the broadcast top-10;
    per-pair terms nano-quantized."""
    import math
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def wc_partial(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t["text"], pattern=" ")
        w = pc.list_flatten(parts).to_numpy(zero_copy_only=False)
        u, c = np.unique(w, return_counts=True)
        return pa.table({"w": pa.array(u),
                         "c": pa.array(c.astype(np.int64))})

    wc = relational.ds_to_table(
        docs.map_batches(wc_partial, batch_format="pyarrow")
        .groupby("w").aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    wc = wc[wc["w"] != ""]
    top = wc.sort_values(["c", "w"], ascending=[False, True]) \
        .head(10)["w"].tolist()
    tref = ray.put(top)

    def flag_partial(t: pa.Table) -> pa.Table:
        tw = relational.worker_cached(("umass_top", tref),
                                      lambda: ray.get(tref))
        out = {"_g": pa.array([0])}
        sets = [set((x or "").split(" "))
                for x in t["text"].to_pylist()]
        flags = np.array([[1 if w in s_ else 0 for w in tw]
                          for s_ in sets], dtype=np.int64)
        for i in range(10):
            out[f"d{i}"] = pa.array([int(flags[:, i].sum())])
        k = 0
        for i in range(10):
            for j in range(i + 1, 10):
                out[f"p{k}"] = pa.array([
                    int((flags[:, i] & flags[:, j]).sum())])
                k += 1
        return pa.table(out)

    names = [f"d{i}" for i in range(10)] \
        + [f"p{k}" for k in range(45)]
    agg = relational.ds_to_table(
        docs.map_batches(flag_partial, batch_format="pyarrow")
        .groupby("_g").aggregate(
            *[Sum(c, alias_name=c) for c in names])).to_pandas()
    dcount = [int(agg[f"d{i}"].iloc[0]) for i in range(10)]
    co = {}
    k = 0
    for i in range(10):
        for j in range(i + 1, 10):
            co[(i, j)] = int(agg[f"p{k}"].iloc[0])
            k += 1
    c9 = 0
    for i in range(10):
        for j in range(i + 1, 10):
            c9 += int(np.floor(math.log(
                (co[(i, j)] + 1) / float(dcount[j])) * 1e9 + 0.5))
    return pd.DataFrame([{
        "n_top_words": 10, "n_pairs": 45,
        "umass_coherence": np.round(c9 / 1e9, 6)}]).astype({
            "n_top_words": np.int64, "n_pairs": np.int64})


SQL_UMASS_COHERENCE = """
WITH wc AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS c FROM (
              SELECT unnest(string_split(text, ' ')) AS w
              FROM documents) WHERE w <> '' GROUP BY 1),
top AS (SELECT w, ROW_NUMBER() OVER (ORDER BY c DESC, w) AS r
        FROM wc QUALIFY r <= 10),
mem AS (SELECT DISTINCT d.doc_id, t.r
        FROM documents d JOIN top t
          ON list_contains(string_split(d.text, ' '), t.w)),
dc AS (SELECT r, CAST(COUNT(*) AS BIGINT) AS d FROM mem
       GROUP BY 1),
pr AS (SELECT a.r AS i, b.r AS j,
              CAST(COUNT(*) AS BIGINT) AS co
       FROM mem a JOIN mem b
         ON a.doc_id = b.doc_id AND a.r < b.r
       GROUP BY 1, 2),
pairs AS (SELECT ti.r AS i, tj.r AS j,
                 COALESCE(pr.co, 0) AS co, dc.d AS dj
          FROM top ti JOIN top tj ON ti.r < tj.r
          LEFT JOIN pr ON pr.i = ti.r AND pr.j = tj.r
          JOIN dc ON dc.r = tj.r)
SELECT CAST(10 AS BIGINT) AS n_top_words,
       CAST(45 AS BIGINT) AS n_pairs,
       ROUND(SUM(CAST(FLOOR(LN((co + 1) / CAST(dj AS DOUBLE))
                            * 1e9 + 0.5) AS BIGINT)) / 1e9, 6)
         AS umass_coherence
FROM pairs
"""


def q_juilland_d_top_words(sf_dir: str):
    """Juilland's D dispersion for the corpus' top-10 words — corpus
    linguistics' even-spread score (a word can be frequent because
    ONE source spams it; D = 1 − CV/√(k−1) over the per-source
    frequency profile separates even coverage from bursts): exact
    per-(word, source) counts including zero cells, CV from exact
    integer moments, one mirrored chain per word.  D = 1 perfectly
    even, → 0 concentrated."""
    import math
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["source", "text"])

    def wc_partial(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t["text"], pattern=" ")
        lens = pc.list_value_length(parts).to_numpy(
            zero_copy_only=False).astype(np.int64)
        src = np.repeat(t["source"].to_numpy(zero_copy_only=False),
                        lens)
        w = pc.list_flatten(parts).to_numpy(zero_copy_only=False)
        g = pd.DataFrame({"s": src, "w": w, "c": 1}) \
            .groupby(["s", "w"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    sw = relational.ds_to_table(
        docs.map_batches(wc_partial, batch_format="pyarrow")
        .groupby(["s", "w"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    sw = sw[sw["w"] != ""]
    tot = sw.groupby("w")["c"].sum()
    top = sorted(tot.index,
                 key=lambda x: (-int(tot.loc[x]), x))[:10]
    k = sw["s"].nunique()
    rows = []
    for w_ in top:
        g = sw[sw["w"] == w_]
        s1 = int(g["c"].sum())
        s2 = int((g["c"].astype(object) ** 2).sum())
        mean = float(s1) / k
        var = float(k * s2 - s1 * s1) / (float(k) * k)
        cv = math.sqrt(var) / mean
        d_ = 1.0 - cv / math.sqrt(float(k - 1))
        rows.append({"word": w_, "total_count": s1,
                     "n_sources_present": len(g),
                     "juilland_d": np.round(d_, 6)})
    return pd.DataFrame(rows).astype({
        "total_count": np.int64, "n_sources_present": np.int64})


SQL_JUILLAND_D = """
WITH sw AS (SELECT source AS s, w, CAST(COUNT(*) AS BIGINT) AS c
            FROM (SELECT source,
                         unnest(string_split(text, ' ')) AS w
                  FROM documents) WHERE w <> '' GROUP BY 1, 2),
k AS (SELECT CAST(COUNT(DISTINCT s) AS BIGINT) AS k FROM sw),
tot AS (SELECT w, CAST(SUM(c) AS BIGINT) AS t,
               CAST(COUNT(*) AS BIGINT) AS pres,
               SUM(CAST(c AS HUGEINT) * c) AS s2
        FROM sw GROUP BY 1),
top AS (SELECT w, t, pres, s2,
               ROW_NUMBER() OVER (ORDER BY t DESC, w) AS r
        FROM tot QUALIFY r <= 10)
SELECT w AS word, t AS total_count, pres AS n_sources_present,
       ROUND(1.0 - (SQRT(CAST(k.k * s2 - CAST(t AS HUGEINT) * t
                              AS DOUBLE)
                         / (CAST(k.k AS DOUBLE) * k.k))
                    / (CAST(t AS DOUBLE) / k.k))
             / SQRT(CAST(k.k - 1 AS DOUBLE)), 6) AS juilland_d
FROM top, k ORDER BY t DESC, w
"""


def q_eigenvector_centrality_links(sf_dir: str):
    """Eigenvector centrality over the deterministic synthetic link
    graph (the same 3-out-link topology as the registry's PageRank) —
    the centrality PageRank approximates but with NO damping and NO
    out-degree division (a node is important iff important nodes
    point at it, Bonacich 1972): three power-iteration rounds from
    uniform, each round's in-sums NANO-QUANTIZED to exact integers
    y9, the L1 normalizer S9 = Σy9 an exact integer so the
    normalized scores round(y9/S9, 9) are identical float chains in
    both engines (the word-PageRank round-9 convention, upgraded to
    an integer normalizer).  Top-20 by (score DESC, doc_id)."""
    import ray
    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()

    def edges(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        src = np.repeat(d, 3)
        k = np.tile(np.array([1, 2, 3], dtype=np.int64), len(d))
        # QUADRATIC map (unlike PageRank's affine one): src² mod n is
        # not a bijection, so in-degrees vary and the centrality is
        # genuinely non-uniform (an affine map with prime multiplier
        # makes the graph in-regular ⇒ uniform scores ⇒ a vacuous op)
        dst = (src * src * 31 + k * 104729) % n
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    ed = docs.map_batches(edges, batch_format="pyarrow").materialize()
    ids = np.arange(n, dtype=np.int64)
    r = np.round(np.full(n, 1.0 / n), 9)
    for _ in range(3):
        r_ref = ray.put(r)

        def contrib(batch: pa.Table, _r=r_ref) -> pa.Table:
            rr = ray.get(_r)
            s = batch["src"].to_numpy(zero_copy_only=False)
            d = batch["dst"].to_numpy(zero_copy_only=False)
            uniq, inv = np.unique(d, return_inverse=True)
            c = np.bincount(inv, weights=rr[s])
            return pa.table({"i": pa.array(uniq.astype(np.int64)),
                             "c": pa.array(c)})

        t = relational.ds_to_table(
            ed.map_batches(contrib, batch_format="pyarrow"))
        y = np.zeros(n)
        np.add.at(y, t["i"].to_numpy(zero_copy_only=False),
                  t["c"].to_numpy(zero_copy_only=False))
        y9 = np.round(y * 1e9).astype(np.int64)
        s9 = int(y9.sum())
        if s9 <= 0:
            break
        r = np.round(y9 / s9, 9)
    out = pd.DataFrame({"doc_id": ids, "eigencentrality": r})
    out = out.sort_values(["eigencentrality", "doc_id"],
                          ascending=[False, True]).head(20) \
        .reset_index(drop=True)
    out["eigencentrality"] = np.round(out["eigencentrality"], 6)
    return out.astype({"doc_id": np.int64})


SQL_EIGENVECTOR = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
nodes AS (SELECT doc_id AS v FROM documents),
edges AS (
  SELECT doc_id AS src,
         (CAST(doc_id AS HUGEINT) * doc_id * 31 + k * 104729)
           % nn.n AS dst
  FROM documents, nn, (SELECT UNNEST([1, 2, 3]) AS k)),
r0 AS (SELECT v, ROUND(1.0 / nn.n, 9) AS r FROM nodes, nn),
y1 AS (SELECT e.dst AS v, SUM(r0.r) AS y
       FROM edges e JOIN r0 ON r0.v = e.src GROUP BY 1),
q1 AS (SELECT nodes.v,
              CAST(ROUND(COALESCE(y1.y, 0) * 1e9) AS HUGEINT) AS y9
       FROM nodes LEFT JOIN y1 USING (v)),
s1 AS (SELECT SUM(y9) AS s9 FROM q1),
r1 AS (SELECT v, ROUND(CAST(y9 AS DOUBLE) / s1.s9, 9) AS r
       FROM q1, s1),
y2 AS (SELECT e.dst AS v, SUM(r1.r) AS y
       FROM edges e JOIN r1 ON r1.v = e.src GROUP BY 1),
q2 AS (SELECT nodes.v,
              CAST(ROUND(COALESCE(y2.y, 0) * 1e9) AS HUGEINT) AS y9
       FROM nodes LEFT JOIN y2 USING (v)),
s2 AS (SELECT SUM(y9) AS s9 FROM q2),
r2 AS (SELECT v, ROUND(CAST(y9 AS DOUBLE) / s2.s9, 9) AS r
       FROM q2, s2),
y3 AS (SELECT e.dst AS v, SUM(r2.r) AS y
       FROM edges e JOIN r2 ON r2.v = e.src GROUP BY 1),
q3 AS (SELECT nodes.v,
              CAST(ROUND(COALESCE(y3.y, 0) * 1e9) AS HUGEINT) AS y9
       FROM nodes LEFT JOIN y3 USING (v)),
s3 AS (SELECT SUM(y9) AS s9 FROM q3),
r3 AS (SELECT v, ROUND(CAST(y9 AS DOUBLE) / s3.s9, 9) AS r
       FROM q3, s3)
SELECT v AS doc_id, ROUND(r, 6) AS eigencentrality
FROM r3 ORDER BY r DESC, v LIMIT 20
"""


def q_fowlkes_mallows_langid(sf_dir: str):
    """Fowlkes–Mallows index of the LangId prediction against the
    true labels — the PAIR-COUNTING geometric mean completing the
    external-cluster-validity family (ARI chance-corrects, V-measure
    is entropy-based, FM = TP/√((TP+FP)(TP+FN)) is the precision ×
    recall geometric mean over SAME-CLUSTER PAIRS): every pair count
    is exact integer combinatorics on the memoized confusion matrix
    (Σ C(n_ij,2) and the margin sums), one √ at the end."""
    import math
    conf = q_langid_confusion(sf_dir)
    nij = conf["n"].to_numpy(np.int64).astype(object)
    tp = int((nij * (nij - 1) // 2).sum())
    row = conf.groupby("lang")["n"].sum()
    col = conf.groupby("lang_pred")["n"].sum()
    pa_ = int(sum(int(a) * (int(a) - 1) // 2 for a in row))
    pb = int(sum(int(b) * (int(b) - 1) // 2 for b in col))
    fm = np.nan if pa_ == 0 or pb == 0 else \
        float(tp) / math.sqrt(float(pa_) * pb)
    return pd.DataFrame([{
        "n_docs": int(conf["n"].sum()),
        "pairs_both": tp, "pairs_true": pa_, "pairs_pred": pb,
        "fowlkes_mallows": np.round(fm, 6)}]).astype({
            "n_docs": np.int64, "pairs_both": np.int64,
            "pairs_true": np.int64, "pairs_pred": np.int64})


def _sql_fowlkes_mallows() -> str:
    return f"""
WITH {_langid_pred_sql_body()},
conf AS (SELECT lang, lang_pred, CAST(COUNT(*) AS BIGINT) AS n
         FROM pred GROUP BY 1, 2),
tp AS (SELECT SUM(CAST(n AS HUGEINT) * (n - 1) // 2) AS tp,
              CAST(SUM(n) AS BIGINT) AS nd FROM conf),
ra AS (SELECT SUM(CAST(a AS HUGEINT) * (a - 1) // 2) AS pa FROM (
         SELECT SUM(n) AS a FROM conf GROUP BY lang)),
rb AS (SELECT SUM(CAST(b AS HUGEINT) * (b - 1) // 2) AS pb FROM (
         SELECT SUM(n) AS b FROM conf GROUP BY lang_pred))
SELECT tp.nd AS n_docs, CAST(tp.tp AS BIGINT) AS pairs_both,
       CAST(ra.pa AS BIGINT) AS pairs_true,
       CAST(rb.pb AS BIGINT) AS pairs_pred,
       CASE WHEN ra.pa = 0 OR rb.pb = 0 THEN NULL
            ELSE ROUND(CAST(tp.tp AS DOUBLE)
                       / SQRT(CAST(ra.pa AS DOUBLE) * rb.pb), 6)
       END AS fowlkes_mallows
FROM tp, ra, rb
"""
