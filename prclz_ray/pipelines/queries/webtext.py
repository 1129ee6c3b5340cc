"""Web-text and training-data queries: dedup, language ID, quality
signals, tokenization, retrieval, embeddings and media."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ...stages import dedup as dd
from ...stages import relational, similarity, text
from ...stages.text import token_count_batch
from .common import (
    SQL_FUZZY_BASE, _SEM_DIM, _SEM_K, _SEM_SEED, _doc_features,
    _doc_logreg_scored, _fingerprint_cache_dir, _fuzzy_cluster_labels,
    _fuzzy_sides, _read, _read_table, _sql_minhash_sig_prefix)


def q_sample_documents(sf_dir: str):
    """Deterministic 5% hash sample of the corpus — reproducible, shuffle-free
    subsampling (rate in ppm so the arithmetic is exact on both sides)."""
    docs = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return relational.deterministic_sample(docs, key_col="doc_id",
                                           rate_ppm=50_000, seed=1)


SQL_SAMPLE = """
SELECT doc_id, lang, n_chars FROM documents
WHERE ((CAST(doc_id + 1 AS HUGEINT) * 11400714819323198485)
       % 18446744073709551616) % 1000000 < 50000
"""


def q_exact_dedup_documents(sf_dir: str):
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return dd.exact_dedup(docs, text_col="text", key_col="doc_id") \
        .select_columns(["doc_id"])


SQL_EXACT_DEDUP = "SELECT MIN(doc_id) AS doc_id FROM documents GROUP BY text"


def q_token_counts_by_lang(sf_dir: str):
    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    counted = docs.map_batches(token_count_batch, batch_format="pyarrow")
    from ray.data.aggregate import Count, Sum
    out = counted.groupby("lang").aggregate(
        Count(alias_name="n_docs"),
        Sum("tokens_ws", alias_name="sum_tokens_ws"),
        Sum("tokens_re", alias_name="sum_tokens_re"))
    df = out.to_pandas()
    for c in ("n_docs", "sum_tokens_ws", "sum_tokens_re"):
        df[c] = df[c].astype("int64")
    return df[["lang", "n_docs", "sum_tokens_ws", "sum_tokens_re"]]


SQL_TOKENS = r"""
SELECT lang, COUNT(*) AS n_docs,
       CAST(SUM(len(string_split(text, ' '))) AS BIGINT) AS sum_tokens_ws,
       CAST(SUM(len(regexp_extract_all(text, '\w+|[^\w\s]'))) AS BIGINT)
         AS sum_tokens_re
FROM documents GROUP BY lang
"""


def q_quality_stats_by_lang(sf_dir: str):
    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    scored = docs.map_batches(text.QualityScorer, batch_format="pandas",
                              concurrency=2)
    from ray.data.aggregate import Count, Sum
    out = scored.groupby("lang").aggregate(
        Count(alias_name="n_docs"),
        Sum("q_chars", alias_name="sum_chars"),
        Sum("q_words", alias_name="sum_words"))
    df = out.to_pandas()
    for c in ("n_docs", "sum_chars", "sum_words"):
        df[c] = df[c].astype("int64")
    return df[["lang", "n_docs", "sum_chars", "sum_words"]]


SQL_QUALITY = r"""
SELECT lang, COUNT(*) AS n_docs,
       CAST(SUM(LENGTH(text)) AS BIGINT) AS sum_chars,
       CAST(SUM(len(regexp_extract_all(text, '\w+'))) AS BIGINT) AS sum_words
FROM documents GROUP BY lang
"""


def q_pii_redaction(sf_dir: str):
    """PII redaction (emails / phones / IPv4 → typed placeholders, with
    per-doc counts).  The raw word-salad corpus carries no PII, so each
    doc is first seeded with deterministic synthetic PII derived from
    doc_id — the same derivation the SQL oracle performs — making the
    replacement semantics hash-checkable end to end.  Redaction itself is
    ``redact_pii_batch``: chained RE2 count+replace, arrow-native."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def enrich(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"]
        idn = ids.to_numpy(zero_copy_only=False)
        j = pc.binary_join_element_wise
        email = j(" contact user", pc.cast(ids, pa.string()),
                  "@mail.example.com now", "")
        phone = j(" call 415-555-",
                  pc.utf8_lpad(pc.cast(pa.array(idn % 10000), pa.string()),
                               4, padding="0"), "")
        ip = j(" from 10.0.", pc.cast(pa.array(idn % 256), pa.string()),
               ".25", "")
        z = pa.scalar("")
        t0 = j(batch["text"],
               pc.if_else(pa.array(idn % 3 == 0), email, z),
               pc.if_else(pa.array(idn % 5 == 0), phone, z),
               pc.if_else(pa.array(idn % 7 == 0), ip, z), "")
        return pa.table({"doc_id": ids, "text": t0})

    out = docs.map_batches(enrich, batch_format="pyarrow") \
        .map_batches(text.redact_pii_batch, batch_format="pyarrow")
    return out.select_columns(
        ["doc_id", "n_email", "n_phone", "n_ipv4", "text_redacted"])


SQL_PII = r"""
WITH e AS (
  SELECT doc_id, text
    || CASE WHEN doc_id % 3 = 0 THEN ' contact user' || CAST(doc_id AS VARCHAR)
            || '@mail.example.com now' ELSE '' END
    || CASE WHEN doc_id % 5 = 0 THEN ' call 415-555-'
            || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0') ELSE '' END
    || CASE WHEN doc_id % 7 = 0 THEN ' from 10.0.'
            || CAST(doc_id % 256 AS VARCHAR) || '.25' ELSE '' END AS t0
  FROM documents),
 s1 AS (SELECT doc_id,
        len(regexp_extract_all(t0, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS n_email,
        regexp_replace(t0, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g') AS t1 FROM e),
 s2 AS (SELECT *, len(regexp_extract_all(t1, '\b\d{3}-\d{3}-\d{4}\b')) AS n_phone,
        regexp_replace(t1, '\b\d{3}-\d{3}-\d{4}\b', '<PHONE>', 'g') AS t2 FROM s1),
 s3 AS (SELECT *, len(regexp_extract_all(t2, '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b')) AS n_ipv4,
        regexp_replace(t2, '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '<IP>', 'g') AS t3 FROM s2)
SELECT doc_id, CAST(n_email AS BIGINT) AS n_email,
       CAST(n_phone AS BIGINT) AS n_phone,
       CAST(n_ipv4 AS BIGINT) AS n_ipv4, t3 AS text_redacted
FROM s3
"""


def q_url_canonical_dedup(sf_dir: str):
    """URL canonicalization + variant-collapse report: each group of 4
    docs yields 4 raw-URL variants of one logical page (tracking params,
    fragment, uppercase host + trailing slash); canonicalization must
    collapse them to a single key with n_variants=4."""
    from ...stages import urls as us
    docs = _read(sf_dir, "documents", ["doc_id"])

    def synth_urls(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        base = ids // 4
        v = ids % 4
        b_str = pc.cast(pa.array(base), pa.string())
        j = pc.binary_join_element_wise
        plain = j("https://example.org/doc/", b_str, "")
        track = j("https://example.org/doc/", b_str,
                  "/?utm_source=feed&utm_campaign=x", "")
        frag = j("https://example.org/doc/", b_str, "#section-2", "")
        upper = j("HTTPS://EXAMPLE.org/doc/", b_str, "/", "")
        u = pc.if_else(pa.array(v == 1), track,
                       pc.if_else(pa.array(v == 2), frag,
                                  pc.if_else(pa.array(v == 3), upper, plain)))
        return pa.table({"doc_id": batch["doc_id"], "url": u})

    out = docs.map_batches(synth_urls, batch_format="pyarrow")
    df = us.canonical_url_groups(out, url_col="url", id_col="doc_id") \
        .to_pandas()
    df["n_variants"] = df["n_variants"].astype("int64")
    return df[["canonical_url", "n_variants", "min_doc_id"]]


SQL_URL_CANON = r"""
WITH raw AS (
  SELECT doc_id,
         CASE doc_id % 4
           WHEN 1 THEN 'https://example.org/doc/' || CAST(doc_id // 4 AS VARCHAR)
                       || '/?utm_source=feed&utm_campaign=x'
           WHEN 2 THEN 'https://example.org/doc/' || CAST(doc_id // 4 AS VARCHAR)
                       || '#section-2'
           WHEN 3 THEN 'HTTPS://EXAMPLE.org/doc/' || CAST(doc_id // 4 AS VARCHAR) || '/'
           ELSE 'https://example.org/doc/' || CAST(doc_id // 4 AS VARCHAR)
         END AS url
  FROM documents),
 canon AS (
  SELECT doc_id,
   regexp_replace(
    regexp_replace(
     regexp_replace(
      regexp_replace(
       regexp_replace(
        CASE WHEN regexp_matches(url, '^[A-Za-z][A-Za-z0-9+.-]*://')
             THEN lower(regexp_extract(url, '^([A-Za-z][A-Za-z0-9+.-]*)://([^/?#]*)', 1)) || '://'
                  || lower(regexp_extract(url, '^([A-Za-z][A-Za-z0-9+.-]*)://([^/?#]*)', 2))
                  || regexp_extract(url, '^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*(.*)$', 1)
             ELSE url END,
        '#.*$', ''),
       '[?&]utm_[A-Za-z_]*=[^&#]*', '', 'g'),
      '^([^?]*)&', '\1?'),
     '[?&]$', ''),
    '(://[^/?#]*/[^?#]*?)/+$', '\1') AS canonical_url
  FROM raw)
SELECT canonical_url, COUNT(*) AS n_variants, MIN(doc_id) AS min_doc_id
FROM canon GROUP BY canonical_url
"""


def q_paragraph_dedup(sf_dir: str):
    """Paragraph-level duplication profile (CCNet semantics): docs are
    given 0-2 deterministic boilerplate paragraphs (social-share on
    doc_id%3, subscribe on doc_id%5) so corpus-wide duplicate paragraphs
    exist; the operator must flag exactly those and leave each doc's
    unique body paragraph unflagged."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def enrich(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"]
        idn = ids.to_numpy(zero_copy_only=False)
        j = pc.binary_join_element_wise
        z = pa.scalar("")
        share = pa.scalar("\n\nShare this article on social media")
        subsc = pa.scalar("\n\nSubscribe to our newsletter today")
        t0 = j(batch["text"],
               pc.if_else(pa.array(idn % 3 == 0), share, z),
               pc.if_else(pa.array(idn % 5 == 0), subsc, z), "")
        return pa.table({"doc_id": ids, "text": t0})

    out = dd.paragraph_dedup_stats(
        docs.map_batches(enrich, batch_format="pyarrow"))
    return out.select_columns(["doc_id", "n_paras", "n_dup_paras",
                               "dup_frac"])


SQL_PARA_DEDUP = """
WITH e AS (
  SELECT doc_id, text
    || CASE WHEN doc_id % 3 = 0
            THEN chr(10) || chr(10) || 'Share this article on social media'
            ELSE '' END
    || CASE WHEN doc_id % 5 = 0
            THEN chr(10) || chr(10) || 'Subscribe to our newsletter today'
            ELSE '' END AS t0
  FROM documents),
 paras AS (
  SELECT doc_id, unnest(string_split(t0, chr(10) || chr(10))) AS para FROM e),
 cnt AS (
  SELECT para, COUNT(*) AS c FROM paras GROUP BY para)
SELECT p.doc_id, COUNT(*) AS n_paras,
       CAST(SUM(CASE WHEN c.c >= 2 THEN 1 ELSE 0 END) AS BIGINT) AS n_dup_paras,
       ROUND(SUM(CASE WHEN c.c >= 2 THEN 1 ELSE 0 END)
             / CAST(COUNT(*) AS DOUBLE), 4) AS dup_frac
FROM paras p JOIN cnt c ON p.para = c.para
GROUP BY p.doc_id
"""


#: decomposed-unicode + messy-whitespace suffix appended to even doc_ids so
#: normalization has real work (NFC composition, case fold, run collapse,
#: trim); embedded verbatim into the SQL literal too
_NORM_SUFFIX = "   Cafe\u0301  NAI\u0308VE\t"  # decomposed accents: NFC composes them


def q_normalize_text(sf_dir: str):
    """Unicode/whitespace normalization profile: NFC, lowercase, collapse
    whitespace runs, trim — with a per-doc changed flag.  Even doc_ids get
    a decomposed-accent messy-whitespace suffix so the kernels are
    exercised; odd docs must come back unchanged (changed=0)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def enrich(batch: pa.Table) -> pa.Table:
        idn = batch["doc_id"].to_numpy(zero_copy_only=False)
        t0 = pc.binary_join_element_wise(
            batch["text"],
            pc.if_else(pa.array(idn % 2 == 0), pa.scalar(_NORM_SUFFIX),
                       pa.scalar("")), "")
        return pa.table({"doc_id": batch["doc_id"], "text": t0})

    out = docs.map_batches(enrich, batch_format="pyarrow") \
        .map_batches(text.normalize_text_batch, batch_format="pyarrow")
    return out.select_columns(["doc_id", "text_norm", "changed"])


SQL_NORMALIZE = r"""
WITH e AS (
  SELECT doc_id,
         text || CASE WHEN doc_id %% 2 = 0 THEN '%s' ELSE '' END AS t0
  FROM documents),
 n AS (
  SELECT doc_id, t0,
         regexp_replace(
           regexp_replace(lower(nfc_normalize(t0)), '\s+', ' ', 'g'),
           '^ +| +$', '', 'g') AS text_norm
  FROM e)
SELECT doc_id, text_norm,
       CASE WHEN t0 <> text_norm THEN 1 ELSE 0 END AS changed
FROM n
""" % _NORM_SUFFIX


def q_top_words(sf_dir: str):
    """Corpus heavy hitters: global top-20 words (partial counts →
    vocab groupby → per-block prune → tiny sort)."""
    docs = _read(sf_dir, "documents", ["text"])
    return text.top_k_words(docs, k=20).select(["word", "n"])


SQL_TOP_WORDS = """
SELECT w AS word, COUNT(*) AS n
FROM (SELECT unnest(string_split(text, ' ')) AS w FROM documents)
GROUP BY w ORDER BY n DESC, word ASC LIMIT 20
"""


def q_rare_word_stats(sf_dir: str):
    """Hapax/low-DF word-type density per doc.  The tiny natural
    vocabulary makes every raw word common, so each doc gains one
    df=2 'duo' token (shared with its pair doc) and even docs gain one
    df=1 'uq' hapax - exercising both rarity classes while the common
    head flags through the broadcast path."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def enrich(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"]
        idn = ids.to_numpy(zero_copy_only=False)
        j = pc.binary_join_element_wise
        duo = j(" duo", pc.cast(pa.array(idn // 2), pa.string()), "")
        uq = j(" uq", pc.cast(ids, pa.string()), "")
        t0 = j(batch["text"], duo,
               pc.if_else(pa.array(idn % 2 == 0), uq, pa.scalar("")), "")
        return pa.table({"doc_id": ids, "text": t0})

    out = text.rare_word_stats(
        docs.map_batches(enrich, batch_format="pyarrow"))
    return out.select_columns(["doc_id", "n_types", "n_rare_types",
                               "rare_frac"])


SQL_RARE_WORDS = """
WITH e AS (
  SELECT doc_id, text || ' duo' || CAST(doc_id // 2 AS VARCHAR)
         || CASE WHEN doc_id % 2 = 0
                 THEN ' uq' || CAST(doc_id AS VARCHAR) ELSE '' END AS t0
  FROM documents),
 w AS (SELECT DISTINCT doc_id, unnest(string_split(t0, ' ')) AS w FROM e),
 df AS (SELECT w, COUNT(*) AS df FROM w GROUP BY w),
 j AS (SELECT doc_id, CASE WHEN df.df <= 2 THEN 1 ELSE 0 END AS rare
       FROM w JOIN df ON w.w = df.w)
SELECT doc_id, COUNT(*) AS n_types,
       CAST(SUM(rare) AS BIGINT) AS n_rare_types,
       FLOOR(SUM(rare) * 10000.0 / COUNT(*)) / 10000 AS rare_frac
FROM j GROUP BY doc_id
"""


def q_repetition_stats(sf_dir: str):
    """Gopher-style repetition quality filters over the raw corpus: the
    word-salad documents carry natural repetition (small vocabulary), so
    no enrichment is needed — per-doc top-word / top-bigram dominance is a
    direct measure, hash-checked against the string-counting SQL twin."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = docs.map_batches(text.repetition_stats_batch,
                           batch_format="pyarrow")
    return out.select_columns(["doc_id", "n_words", "top_word_n",
                               "top_bigram_n", "top_word_frac",
                               "top_bigram_frac"])


SQL_REPETITION = """
WITH w AS (SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents),
 wc AS (SELECT doc_id, w, COUNT(*) AS c FROM w GROUP BY doc_id, w),
 tw AS (SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n_words,
               CAST(MAX(c) AS BIGINT) AS top_word_n FROM wc GROUP BY doc_id),
 lists AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
 bg AS (SELECT doc_id, l[k] || ' ' || l[k+1] AS b
        FROM lists, unnest(generate_series(1, len(l)-1)) AS t(k)),
 bc AS (SELECT doc_id, b, COUNT(*) AS c FROM bg GROUP BY doc_id, b),
 tb AS (SELECT doc_id, CAST(MAX(c) AS BIGINT) AS top_bigram_n
        FROM bc GROUP BY doc_id)
SELECT tw.doc_id, tw.n_words, tw.top_word_n,
       COALESCE(tb.top_bigram_n, 0) AS top_bigram_n,
       FLOOR(tw.top_word_n * 10000.0 / GREATEST(tw.n_words, 1)) / 10000
         AS top_word_frac,
       FLOOR(COALESCE(tb.top_bigram_n, 0) * 10000.0
             / GREATEST(tw.n_words - 1, 1)) / 10000 AS top_bigram_frac
FROM tw LEFT JOIN tb ON tw.doc_id = tb.doc_id
"""


_FILT_MIN_TOKENS, _FILT_MAX_TWF = 20, 0.13


def q_corpus_filter_decision(sf_dir: str):
    """The capstone corpus-hygiene decision (C4/Gopher-style): language
    known, document long enough, not top-word-dominated — one fused map
    chaining LangId → token counts → repetition stats → a vectorized
    keep/reason verdict per doc (reason is a bitmask: 1 = too short,
    2 = repetitive, 4 = language unknown).  Every heuristic reuses an
    already-oracled kernel, and the SQL twin reassembles the identical
    expressions, so the final DECISION is hash-checked end to end."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    ds = docs.map_batches(text.LangId, batch_format="pandas",
                          concurrency=(1, 4))
    ds = ds.map_batches(token_count_batch, batch_format="pyarrow")
    ds = ds.map_batches(text.repetition_stats_batch,
                        batch_format="pyarrow")

    ds = ds.map_batches(
        lambda t: text.filter_decision_batch(
            t, min_tokens=_FILT_MIN_TOKENS,
            max_top_word_frac=_FILT_MAX_TWF),
        batch_format="pyarrow")
    out = ds.to_pandas()
    out = out[["doc_id", "lang_pred", "tokens_ws", "top_word_frac",
               "keep", "reason"]]
    return out.astype({"tokens_ws": "int64", "keep": "int64",
                       "reason": "int64"})


def _corpus_filter_sql() -> str:
    langs = list(text._LANG_PROFILES)
    pats = {
        lg: r"\b(?:" + "|".join(sorted(prof, key=len, reverse=True)) + r")\b"
        for lg, prof in text._LANG_PROFILES.items()}
    counts = ",\n    ".join(
        f"length(regexp_extract_all(lower(text), '{pats[lg]}')) AS c_{lg}"
        for lg in langs)
    all_c = ", ".join(f"c_{lg}" for lg in langs)
    branches = []
    for i, lg in enumerate(langs):
        conds = " AND ".join(f"c_{lg} >= c_{other}" for other in langs[i + 1:])
        branches.append(f"WHEN {conds or 'TRUE'} THEN '{lg}'")
    case = "\n      ".join(branches)
    return f"""
WITH scored AS (
  SELECT doc_id, text,
    {counts}
  FROM documents
),
pred AS (
  SELECT doc_id, text,
    CASE WHEN GREATEST({all_c}) = 0 THEN 'und'
      {case}
    END AS lang_pred,
    len(string_split(text, ' ')) AS tokens_ws
  FROM scored
),
wc AS (SELECT doc_id, w, COUNT(*) AS c
       FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS w
             FROM documents) GROUP BY doc_id, w),
tw AS (SELECT doc_id,
              FLOOR(MAX(c) * 10000.0 / GREATEST(SUM(c), 1)) / 10000
                AS top_word_frac
       FROM wc GROUP BY doc_id),
j AS (
  SELECT p.doc_id, p.lang_pred, p.tokens_ws, tw.top_word_frac,
         (CASE WHEN p.tokens_ws < {_FILT_MIN_TOKENS} THEN 1 ELSE 0 END
          + CASE WHEN tw.top_word_frac > {_FILT_MAX_TWF} THEN 2 ELSE 0 END
          + CASE WHEN p.lang_pred = 'und' THEN 4 ELSE 0 END) AS reason
  FROM pred p JOIN tw ON tw.doc_id = p.doc_id
)
SELECT doc_id, lang_pred, CAST(tokens_ws AS BIGINT) AS tokens_ws,
       top_word_frac,
       CAST(CASE WHEN reason = 0 THEN 1 ELSE 0 END AS BIGINT) AS keep,
       CAST(reason AS BIGINT) AS reason
FROM j
"""


SQL_CORPUS_FILTER = _corpus_filter_sql()


def q_corpus_diff(sf_dir: str):
    """Snapshot diff (crawl-over-crawl CDC): compare the corpus with a
    deterministic 'next crawl' (drop doc_id%7==0, change text of %5==0,
    add 50 new ids) and emit per-doc status added/removed/changed/same
    — ONE full-outer bucketed join + a vectorized status map."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    n = docs.count()

    def next_crawl(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        keep = ids % 7 != 0
        tt = t.filter(pa.array(keep))
        ids2 = tt["doc_id"].to_numpy(zero_copy_only=False)
        changed = ids2 % 5 == 0
        txt = tt["text"].to_pandas()
        txt[changed] = txt[changed] + " v2"
        return pa.table({"doc_id": tt["doc_id"],
                         "text_new": pa.array(txt)})

    new = docs.map_batches(next_crawl, batch_format="pyarrow")
    extra = rd.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(n, n + 50, dtype=np.int64)),
        "text_new": pa.array(["brand new page"] * 50)}))
    new = new.union(extra)

    j = relational.bucketed_hash_join(
        docs.map_batches(
            lambda t: pa.table({"doc_id": t["doc_id"],
                                "text_old": t["text"]}),
            batch_format="pyarrow"),
        new, on="doc_id", how="outer")

    def status(t: pa.Table) -> pa.Table:
        old = t["text_old"].to_pandas()
        nw = t["text_new"].to_pandas()
        st = np.where(old.isna(), "added",
                      np.where(nw.isna(), "removed",
                               np.where(old == nw, "same", "changed")))
        return pa.table({"doc_id": t["doc_id"].cast(pa.int64()),
                         "status": pa.array(st.astype(object),
                                            type=pa.string())})

    return j.map_batches(status, batch_format="pyarrow")


SQL_CORPUS_DIFF = """
WITH nw AS (
  SELECT doc_id,
         text || CASE WHEN doc_id % 5 = 0 THEN ' v2' ELSE '' END
           AS text_new
  FROM documents WHERE doc_id % 7 <> 0
  UNION ALL
  SELECT (SELECT COUNT(*) FROM documents) + g AS doc_id,
         'brand new page' AS text_new
  FROM generate_series(0, 49) t(g))
SELECT COALESCE(d.doc_id, nw.doc_id) AS doc_id,
       CASE WHEN d.doc_id IS NULL THEN 'added'
            WHEN nw.doc_id IS NULL THEN 'removed'
            WHEN d.text = nw.text_new THEN 'same'
            ELSE 'changed' END AS status
FROM documents d FULL OUTER JOIN nw ON nw.doc_id = d.doc_id
"""


def q_sample_n_per_lang(sf_dir: str):
    """Exact-N-per-group sampling (3 docs per lang): deterministic
    golden-ratio hash order + the per-batch-pruned grouped top-n — the
    fixed-budget stratified variant."""
    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    mix = np.uint64(relational.SAMPLE_MIX)

    def add_hash(t: pa.Table) -> pa.Table:
        k = t["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        with np.errstate(over="ignore"):
            h = (k + np.uint64(1)) * mix
        return t.append_column("h", pa.array(h, type=pa.uint64()))

    out = relational.grouped_top_n(
        docs.map_batches(add_hash, batch_format="pyarrow"),
        key_col="lang", order_col="h", n=3, id_col="doc_id",
        descending=False).to_pandas()
    return out[["lang", "doc_id", "rnk"]]


SQL_SAMPLE_PER_LANG = """
SELECT lang, doc_id, rnk FROM (
  SELECT lang, doc_id,
         ROW_NUMBER() OVER (PARTITION BY lang ORDER BY
           ((CAST(doc_id + 1 AS HUGEINT) * 11400714819323198485)
            % 18446744073709551616), doc_id) AS rnk
  FROM documents)
WHERE rnk <= 3
"""


def q_refinery_funnel(sf_dir: str):
    """End-to-end corpus-refinery funnel — the composition a web-corpus
    user actually runs, with per-stage survivor counts: total →
    C4/Gopher keep-filter → exact dedup → deterministic 50% sample →
    train/val/test split.  Every stage reuses an already-oracled kernel
    and the SQL twin chains the identical CTE fragments, so the WHOLE
    pipeline's counts are hash-checked end to end.  (At 100 TB the
    counts ride the checkpoint manifest's lineage counters instead of
    re-counting; here each stage is counted directly.)"""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    n_total = docs.count()

    ds = docs.map_batches(text.LangId, batch_format="pandas",
                          concurrency=(1, 4))
    ds = ds.map_batches(token_count_batch, batch_format="pyarrow")
    ds = ds.map_batches(text.repetition_stats_batch,
                        batch_format="pyarrow")
    ds = ds.map_batches(
        lambda t: text.filter_decision_batch(
            t, min_tokens=_FILT_MIN_TOKENS,
            max_top_word_frac=_FILT_MAX_TWF),
        batch_format="pyarrow")
    kept = ds.filter(expr="keep == 1") \
        .map_batches(lambda t: t.select(["doc_id", "text"]),
                     batch_format="pyarrow").materialize()
    n_kept = kept.count()

    deduped = dd.exact_dedup(kept, text_col="text", key_col="doc_id") \
        .materialize()
    n_dedup = deduped.count()

    sampled = relational.deterministic_sample(
        deduped, key_col="doc_id", rate_ppm=500_000).materialize()
    n_sample = sampled.count()

    split = relational.hash_split(
        sampled, key_col="doc_id",
        splits={"train": 800_000, "val": 100_000, "test": 100_000})
    sc = split.groupby("split").count().to_pandas() \
        .set_index("split")["count()"]

    rows = [("00_total", n_total), ("01_filtered", n_kept),
            ("02_deduped", n_dedup), ("03_sampled", n_sample),
            ("04_train", int(sc.get("train", 0))),
            ("04_val", int(sc.get("val", 0))),
            ("04_test", int(sc.get("test", 0)))]
    return pd.DataFrame(rows, columns=["stage", "n"])


def _refinery_funnel_sql() -> str:
    filt = _corpus_filter_sql().strip().rstrip()
    return f"""
WITH decision AS ({filt}),
kept AS (
  SELECT d.doc_id, d.text FROM documents d
  JOIN decision x ON x.doc_id = d.doc_id AND x.keep = 1),
deduped AS (SELECT MIN(doc_id) AS doc_id FROM kept GROUP BY text),
sampled AS (
  SELECT doc_id FROM deduped
  WHERE ((CAST(doc_id + 1 AS HUGEINT) * 11400714819323198485)
         % 18446744073709551616) % 1000000 < 500000),
split AS (
  SELECT doc_id,
         CASE WHEN h < 800000 THEN 'train'
              WHEN h < 900000 THEN 'val'
              ELSE 'test' END AS split
  FROM (SELECT doc_id,
               ((CAST(doc_id + 1 AS HUGEINT) * 11400714819323198485)
                % 18446744073709551616) % 1000000 AS h
        FROM sampled))
SELECT '00_total' AS stage, COUNT(*) AS n FROM documents
UNION ALL SELECT '01_filtered', COUNT(*) FROM kept
UNION ALL SELECT '02_deduped', COUNT(*) FROM deduped
UNION ALL SELECT '03_sampled', COUNT(*) FROM sampled
UNION ALL SELECT '04_train', COUNT(*) FROM split WHERE split = 'train'
UNION ALL SELECT '04_val', COUNT(*) FROM split WHERE split = 'val'
UNION ALL SELECT '04_test', COUNT(*) FROM split WHERE split = 'test'
"""


def q_ann_topk_cosine(sf_dir: str):
    """Brute-force exact top-5 cosine for 3 query vectors (the ANN
    baseline; float64 end-to-end so ordering matches the SQL oracle)."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qrows = sorted(emb.filter(expr="vec_id < 3").take_all(),
                   key=lambda r: r["vec_id"])
    queries = np.array([r["embedding"] for r in qrows], dtype=np.float64)
    qids = [int(r["vec_id"]) for r in qrows]
    out = similarity.ann_bruteforce(emb, queries, qids, k=5)
    return out.select_columns(["query_id", "match_id"])


SQL_ANN = """
WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id < 3),
     s AS (SELECT q.qid, e.vec_id,
                  ROW_NUMBER() OVER (PARTITION BY q.qid
                      ORDER BY list_cosine_similarity(q.qe, e.embedding) DESC,
                               e.vec_id) AS rnk
           FROM q, embeddings e)
SELECT qid AS query_id, vec_id AS match_id FROM s WHERE rnk <= 5
"""


def q_minhash_dedup_documents(sf_dir: str):
    """MinHash+LSH near-dup, checked against an EXHAUSTIVE SQL oracle:
    DuckDB computes the full 5-gram-Jaccard duplicate graph (shingle
    self-join) and its connected components (recursive-CTE transitive
    closure), keeping each component's min doc_id — the same keep rule.
    LSH banding is probabilistic in general; at 16 bands × 4 rows the
    miss probability for a pair at j=0.8 is ≈2e-4 and the fixtures' dup
    pairs sit far above threshold, so the LSH answer equals the
    exhaustive one (verified set-exact at sf0.001 and sf0.01)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"]).repartition(32)
    kept, _ = dd.minhash_lsh_dedup(docs, key_col="doc_id", text_col="text",
                                   jaccard_threshold=0.8)
    return kept.select_columns(["doc_id"])


SQL_MINHASH_DEDUP = """
WITH RECURSIVE sh AS (
  SELECT DISTINCT doc_id, substr(text, CAST(i AS INT), 5) AS g
  FROM (SELECT doc_id, text,
        unnest(generate_series(1, GREATEST(length(text) - 4, 1))) AS i
        FROM documents)
),
sizes AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT x.doc_id AS a, y.doc_id AS b, COUNT(*) AS ni
  FROM sh x JOIN sh y ON x.g = y.g AND x.doc_id < y.doc_id
  GROUP BY 1, 2),
edges AS (
  SELECT i.a, i.b FROM inter i
  JOIN sizes sa ON sa.doc_id = i.a
  JOIN sizes sb ON sb.doc_id = i.b
  WHERE CAST(i.ni AS DOUBLE) / (sa.n + sb.n - i.ni) >= 0.8),
sym AS (SELECT a, b FROM edges UNION ALL SELECT b AS a, a AS b FROM edges),
reach(node, anc) AS (
  SELECT a, b FROM sym
  UNION
  SELECT r.node, s.b FROM reach r JOIN sym s ON s.a = r.anc
)
SELECT doc_id FROM documents d
WHERE NOT EXISTS (SELECT 1 FROM reach r
                  WHERE r.node = d.doc_id AND r.anc < d.doc_id)
"""


def q_simhash_candidate_pairs(sf_dir: str):
    docs = _read(sf_dir, "documents", ["doc_id", "text"]).repartition(32)
    return dd.simhash_dedup(docs, key_col="doc_id", text_col="text",
                            hamming_radius=3)


def _simhash_sql() -> str:
    """SQL twin of stages.dedup.simhash_dedup: per-word polynomial fold
    (list_reduce over hex-extracted UTF-8 bytes, identical constants via
    dedup.SIMHASH_PRIME/SIMHASH_MIX), 64 per-bit majority votes, 4 16-bit
    bands; candidate pairs share >=1 band and pass hamming<=3 (bit_count of
    per-band xor).  The finalizing mix multiply is split into lo/hi 32-bit
    halves so no intermediate exceeds INT128.  Docs with zero \\w+ tokens
    would be absent here but hash to 0 in the engine — the corpus fixture
    has none (min text length 48)."""
    M = 1 << 64
    mix = dd.SIMHASH_MIX
    mixhi = (mix << 32) % M
    votes = ",\n    ".join(
        f"CASE WHEN SUM(CASE WHEN (h // {1 << b}) % 2 = 1 THEN 1 ELSE -1 END)"
        f" > 0 THEN 1 ELSE 0 END AS b{b}"
        for b in range(64))
    bands = ",\n    ".join(
        "(" + " + ".join(f"b{16 * k + j}*{1 << j}" for j in range(16))
        + f") AS band{k}" for k in range(4))
    return rf"""
WITH words AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '\w+')) AS w
  FROM documents
),
folded AS (
  SELECT doc_id,
    list_reduce(
      [CAST(CAST('0x'||substr(hex(encode(w)),2*i-1,2) AS INT) AS HUGEINT)
       for i in generate_series(1, octet_length(encode(w)))],
      (a,b) -> (a*{dd.SIMHASH_PRIME} + b) % {M}) AS f
  FROM words
),
wh AS (
  SELECT doc_id,
    ((f % 4294967296) * {mix} % {M}
     + (f // 4294967296) * {mixhi} % {M}) % {M} AS h
  FROM folded
),
bits AS (
  SELECT doc_id,
    {votes}
  FROM wh GROUP BY doc_id
),
bands AS (
  SELECT doc_id,
    {bands}
  FROM bits
)
SELECT x.doc_id AS a, y.doc_id AS b
FROM bands x JOIN bands y ON x.doc_id < y.doc_id
WHERE (x.band0=y.band0 OR x.band1=y.band1 OR x.band2=y.band2 OR x.band3=y.band3)
  AND bit_count(xor(x.band0, y.band0)) + bit_count(xor(x.band1, y.band1))
    + bit_count(xor(x.band2, y.band2)) + bit_count(xor(x.band3, y.band3)) <= 3
"""


SQL_SIMHASH = _simhash_sql()


def q_embedding_dup_pairs(sf_dir: str):
    """Banded hyperplane-LSH near-dup over embeddings augmented with 20
    seeded exact copies (vec_id + 1_000_000) so the oracle pins a
    non-trivial result: exact copies share every band bucket, so LSH
    recall on them is 1 and the output equals the exhaustive SQL scan
    (natural pairs sit far below the 0.95 threshold — max cosine in the
    synthetic table is ~0.51)."""
    import pyarrow.compute as pc
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    seeded = emb.filter(expr="vec_id < 20").map_batches(
        lambda t: pa.table({"vec_id": pc.add(t["vec_id"], 1_000_000),
                            "embedding": t["embedding"]}),
        batch_format="pyarrow")
    df = dd.embedding_dedup_pairs(emb.union(seeded),
                                  cosine_threshold=0.95).to_pandas()
    if df.empty:  # keep a stable schema on an empty result
        df = pd.DataFrame({"a": pd.Series(dtype="int64"),
                           "b": pd.Series(dtype="int64"),
                           "cosine": pd.Series(dtype="float64")})
    return df[["a", "b", "cosine"]]


SQL_EMB_DUP = """
WITH aug AS (
  SELECT vec_id, embedding FROM embeddings
  UNION ALL
  SELECT vec_id + 1000000 AS vec_id, embedding FROM embeddings
  WHERE vec_id < 20
)
SELECT x.vec_id AS a, y.vec_id AS b,
       CAST(ROUND(list_cosine_similarity(x.embedding, y.embedding), 4)
            AS DOUBLE) AS cosine
FROM aug x JOIN aug y ON x.vec_id < y.vec_id
WHERE list_cosine_similarity(x.embedding, y.embedding) >= 0.95
"""


def q_kmeans_assign(sf_dir: str):
    """Distributed cluster assignment (argmax cosine to a broadcast
    centroid matrix) — the map half of k-means / SemDeDup.  Centroids are
    fixed seeded unit vectors shared with the SQL twin as exact-repr
    literals, so the oracle pins every row's cluster id (no floats in the
    output)."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    C = similarity.fixed_centroids(_SEM_K, _SEM_DIM, _SEM_SEED)
    out = similarity.kmeans_assign(emb, C).to_pandas()
    return out.astype({"vec_id": "int64", "cluster": "int64"})


def _kmeans_assign_sql() -> str:
    from ...stages.similarity import centroid_sql_values, fixed_centroids
    vals = centroid_sql_values(fixed_centroids(_SEM_K, _SEM_DIM, _SEM_SEED))
    return f"""
WITH cents(cid, c) AS (VALUES
    {vals}),
sims AS (
  SELECT e.vec_id, c.cid,
         list_cosine_similarity(e.embedding, c.c) AS s
  FROM embeddings e CROSS JOIN cents c
)
SELECT vec_id, CAST(cid AS BIGINT) AS cluster
FROM (SELECT vec_id, cid,
             ROW_NUMBER() OVER (PARTITION BY vec_id
                                ORDER BY s DESC, cid) AS rn
      FROM sims)
WHERE rn = 1
"""


SQL_KMEANS_ASSIGN = _kmeans_assign_sql()


def q_kmeans_fit_sizes(sf_dir: str):
    """Distributed spherical k-means TRAINING (Lloyd's over the full
    dataset, per-batch partial sums) followed by assignment — emits
    (cluster, n_vecs) sizes.  Rows-only: trained centroids are
    float-iterative (no SQL twin); determinism and partition invariance
    are pytest-pinned, objective monotonicity asserted here too."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    C, hist = similarity.kmeans_fit(emb, n_clusters=8, iters=5, seed=3)
    assert all(b >= a - 1e-12 for a, b in zip(hist, hist[1:]))
    out = similarity.kmeans_assign(emb, C).to_pandas()
    sizes = out.groupby("cluster").size().reset_index(name="n_vecs")
    return sizes.astype({"cluster": "int64", "n_vecs": "int64"})


def q_semantic_dup_pairs(sf_dir: str):
    """SemDeDup over embeddings augmented with 20 seeded exact copies
    (vec_id + 1_000_000): cluster-partition by fixed centroids, exact
    within-cluster cosine ≥ 0.95.  Exact copies share their original's
    cluster by construction, so within-cluster recall on them is 1 and the
    oracle's cluster-restricted exhaustive scan is set-equal."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    seeded = emb.filter(expr="vec_id < 20").map_batches(
        lambda t: pa.table({"vec_id": pc.add(t["vec_id"], 1_000_000),
                            "embedding": t["embedding"]}),
        batch_format="pyarrow")
    C = similarity.fixed_centroids(_SEM_K, _SEM_DIM, _SEM_SEED)
    df = dd.semantic_dup_pairs(emb.union(seeded), C,
                               cosine_threshold=0.95).to_pandas()
    if df.empty:
        df = pd.DataFrame({"a": pd.Series(dtype="int64"),
                           "b": pd.Series(dtype="int64"),
                           "cluster": pd.Series(dtype="int64"),
                           "cosine": pd.Series(dtype="float64")})
    return df[["a", "b", "cluster", "cosine"]]


def _semantic_dup_sql() -> str:
    from ...stages.similarity import centroid_sql_values, fixed_centroids
    vals = centroid_sql_values(fixed_centroids(_SEM_K, _SEM_DIM, _SEM_SEED))
    return f"""
WITH aug AS (
  SELECT vec_id, embedding FROM embeddings
  UNION ALL
  SELECT vec_id + 1000000 AS vec_id, embedding FROM embeddings
  WHERE vec_id < 20
),
cents(cid, c) AS (VALUES
    {vals}),
sims AS (
  SELECT a.vec_id, c.cid,
         list_cosine_similarity(a.embedding, c.c) AS s
  FROM aug a CROSS JOIN cents c
),
assign AS (
  SELECT vec_id, cid
  FROM (SELECT vec_id, cid,
               ROW_NUMBER() OVER (PARTITION BY vec_id
                                  ORDER BY s DESC, cid) AS rn
        FROM sims)
  WHERE rn = 1
)
SELECT x.vec_id AS a, y.vec_id AS b, CAST(ax.cid AS BIGINT) AS cluster,
       CAST(ROUND(list_cosine_similarity(x.embedding, y.embedding), 4)
            AS DOUBLE) AS cosine
FROM aug x
JOIN aug y ON x.vec_id < y.vec_id
JOIN assign ax ON ax.vec_id = x.vec_id
JOIN assign ay ON ay.vec_id = y.vec_id AND ay.cid = ax.cid
WHERE list_cosine_similarity(x.embedding, y.embedding) >= 0.95
"""


SQL_SEMANTIC_DUP = _semantic_dup_sql()


def q_top_bigrams(sf_dir: str):
    """Corpus top-20 word bigrams (LM n-gram statistics) — heavy-hitter
    shape: partial counts, one vocab groupby, per-block prune."""
    docs = _read(sf_dir, "documents", ["text"])
    t = text.top_k_ngrams(docs, text_col="text", n=2, k=20)
    return t.to_pandas().rename(columns={"gram": "bigram"})


SQL_TOP_BIGRAMS = """
SELECT w[CAST(i AS INT)] || ' ' || w[CAST(i AS INT) + 1] AS bigram,
       COUNT(*) AS n
FROM (
  SELECT w, unnest(generate_series(1, len(w) - 1)) AS i
  FROM (SELECT string_split(text, ' ') AS w FROM documents)
  WHERE len(w) >= 2)
GROUP BY bigram ORDER BY n DESC, bigram ASC LIMIT 20
"""


def q_tfidf_top_terms(sf_dir: str):
    """Per-document top-3 TF-IDF keywords: inverted-index double shuffle
    (tf explode → df groupby → bucketed word join → per-doc top-n)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = text.tfidf_top_terms(docs, key_col="doc_id", text_col="text",
                               top_n=3).to_pandas()
    return out[["doc_id", "rank", "word", "score"]] \
        .astype({"rank": "int64"})


SQL_TFIDF = """
WITH words AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents
),
tf AS (
  SELECT doc_id, w AS word, COUNT(*) AS tf
  FROM words WHERE w <> '' GROUP BY doc_id, w
),
df AS (
  SELECT word, COUNT(*) AS df FROM tf GROUP BY word
),
n AS (SELECT COUNT(*) AS n FROM documents),
ranked AS (
  SELECT tf.doc_id, tf.word,
         tf.tf * ln(CAST(n.n AS DOUBLE) / df.df) AS score,
         ROW_NUMBER() OVER (PARTITION BY tf.doc_id
                            ORDER BY tf.tf * ln(CAST(n.n AS DOUBLE) / df.df)
                                     DESC, tf.word) AS rank
  FROM tf JOIN df USING (word) CROSS JOIN n
)
SELECT doc_id, CAST(rank AS BIGINT) AS rank, word,
       CAST(ROUND(score, 4) AS DOUBLE) AS score
FROM ranked WHERE rank <= 3
"""


def q_posting_lists(sf_dir: str):
    """Inverted index: per-word document frequency + sorted posting list
    over the doc_id < 100 slice (the synthetic vocab is tiny and
    stopword-like — the slice keeps every posting string bounded while
    still pinning ~30 exact sorted lists); 2 ≤ df ≤ 100."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"]) \
        .filter(expr="doc_id < 100")
    out = text.posting_lists(docs, key_col="doc_id", text_col="text",
                             min_df=2, max_df=100).to_pandas()
    return out[["word", "df", "postings"]].astype({"df": "int64"})


SQL_POSTINGS = """
WITH pairs AS (
  SELECT DISTINCT doc_id, w AS word
  FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS w
        FROM documents WHERE doc_id < 100)
  WHERE w <> ''
)
SELECT word, COUNT(*) AS df,
       string_agg(doc_id, ',' ORDER BY doc_id) AS postings
FROM pairs GROUP BY word HAVING COUNT(*) BETWEEN 2 AND 100
"""


def q_stratified_sample_docs(sf_dir: str):
    """Stratified deterministic sample: rebalance the corpus by language —
    downsample English to 10 %, keep 50 % of the rest (zh dropped
    entirely via the default rate)."""
    docs = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    out = relational.stratified_sample(
        docs, key_col="doc_id", strata_col="lang",
        rates_ppm={"en": 100_000, "de": 500_000, "es": 500_000,
                   "fr": 500_000}, default_ppm=0, seed=1)
    return out.to_pandas()


SQL_STRATIFIED = """
SELECT doc_id, lang, n_chars FROM documents
WHERE ((CAST(doc_id + 1 AS HUGEINT) * 11400714819323198485)
       % 18446744073709551616) % 1000000
      < CASE lang WHEN 'en' THEN 100000
                  WHEN 'de' THEN 500000
                  WHEN 'es' THEN 500000
                  WHEN 'fr' THEN 500000
                  ELSE 0 END
"""


def q_json_field_stats(sf_dir: str):
    """Structured-field extraction from the semi-structured ``props``
    JSON column (one arrow RE2 extract pass, no per-row json.loads),
    aggregated per event type."""
    ev = _read(sf_dir, "events", ["event_type", "props"])
    ext = text.extract_regex_field(ev, col="props",
                                   pattern=r'"k":\s*(?P<k>\d+)',
                                   out_col="k", cast_to=pa.int64())

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("event_type").aggregate(
            [("k", "sum"), ("k", "max"), ([], "count_all")])
        return pa.table({"event_type": g["event_type"],
                         "ps": g["k_sum"], "pm": g["k_max"],
                         "pn": g["count_all"].cast(pa.int64())})

    from ray.data.aggregate import Max, Sum
    agg = ext.map_batches(partial, batch_format="pyarrow") \
        .groupby("event_type").aggregate(
            Sum("ps", alias_name="sum_k"), Max("pm", alias_name="max_k"),
            Sum("pn", alias_name="n"))
    out = agg.to_pandas()
    return out[["event_type", "n", "sum_k", "max_k"]] \
        .astype({"n": "int64", "sum_k": "int64", "max_k": "int64"})


SQL_JSON_FIELD = """
SELECT event_type, COUNT(*) AS n,
       SUM(CAST(regexp_extract(props, '"k":\\s*(\\d+)', 1) AS BIGINT))
         AS sum_k,
       MAX(CAST(regexp_extract(props, '"k":\\s*(\\d+)', 1) AS BIGINT))
         AS max_k
FROM events GROUP BY event_type
"""


def q_duplicate_spans(sf_dir: str):
    """Exact substring-duplication profile (Lee et al. 2022): 32-char
    windows at stride 8, per-doc duplicated-window counts.  The oracle
    groups by the window substring itself; the engine groups by a
    vectorized codepoint-polynomial hash (identical semantics absent a
    2^-64 collision)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = dd.duplicate_span_stats(docs, key_col="doc_id", text_col="text",
                                  k=32, stride=8).to_pandas()
    return out[["doc_id", "n_spans", "n_dup_spans", "dup_frac"]] \
        .astype({"n_spans": "int64", "n_dup_spans": "int64"})


SQL_DUP_SPANS = """
WITH spans AS (
  SELECT doc_id, substr(text, CAST(p AS INT), 32) AS g
  FROM (SELECT doc_id, text,
               unnest(generate_series(1, GREATEST(length(text) - 31, 1),
                                      8)) AS p
        FROM documents)
),
cnt AS (SELECT g, COUNT(*) AS c FROM spans GROUP BY g)
SELECT s.doc_id, COUNT(*) AS n_spans,
       SUM(CASE WHEN cnt.c >= 2 THEN 1 ELSE 0 END) AS n_dup_spans,
       ROUND(SUM(CASE WHEN cnt.c >= 2 THEN 1 ELSE 0 END)
             / CAST(COUNT(*) AS DOUBLE), 4) AS dup_frac
FROM spans s JOIN cnt ON cnt.g = s.g
GROUP BY s.doc_id
"""


def q_ngram_diversity(sf_dir: str):
    """Within-doc character-8-gram diversity (Gopher repetition signal):
    pure map, no shuffle.  Oracle counts distinct substr windows."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = text.ngram_diversity_stats(docs, key_col="doc_id",
                                     text_col="text", k=8).to_pandas()
    return out[["doc_id", "n_grams", "n_distinct", "distinct_frac"]] \
        .astype({"n_grams": "int64", "n_distinct": "int64"})


SQL_NGRAM_DIVERSITY = """
WITH grams AS (
  SELECT doc_id, substr(text, CAST(p AS INT), 8) AS g
  FROM (SELECT doc_id, text,
               unnest(generate_series(1, GREATEST(length(text) - 7, 1),
                                      1)) AS p
        FROM documents)
)
SELECT doc_id, COUNT(*) AS n_grams,
       COUNT(DISTINCT g) AS n_distinct,
       FLOOR(COUNT(DISTINCT g) / CAST(COUNT(*) AS DOUBLE) * 10000)
         / 10000 AS distinct_frac
FROM grams GROUP BY doc_id
"""


def q_hash_split_docs(sf_dir: str):
    """Deterministic 80/10/10 train/val/test split by doc_id hash — a
    disjoint exhaustive partition (every doc gets exactly one label),
    stable across parallelism and resume; identical HUGEINT arithmetic in
    the SQL twin."""
    docs = _read(sf_dir, "documents", ["doc_id"])
    out = relational.hash_split(
        docs, key_col="doc_id",
        splits={"train": 800_000, "val": 100_000, "test": 100_000})
    return out.to_pandas()


SQL_HASH_SPLIT = """
SELECT doc_id,
       CASE WHEN h < 800000 THEN 'train'
            WHEN h < 900000 THEN 'val'
            ELSE 'test' END AS split
FROM (SELECT doc_id,
             ((CAST(doc_id + 1 AS HUGEINT) * 11400714819323198485)
              % 18446744073709551616) % 1000000 AS h
      FROM documents)
"""


def q_ngram_jaccard_sampled(sf_dir: str):
    """Exact 5-gram Jaccard over a deterministic pair sample
    (doc_id i ↔ i+250): the n-gram-Jaccard dedup primitive with a full
    DuckDB oracle (shingle explode + set sizes).  Distributed shape = the
    same candidate-pair↔text bucketed joins the minhash verify uses."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = docs.filter(expr="doc_id < 250").map_batches(
        lambda t: pa.table({"a": t["doc_id"],
                            "b": pc.add(t["doc_id"], 250)}),
        batch_format="pyarrow")
    out = dd.jaccard_verify_pairs(pairs, docs, key_col="doc_id",
                                  text_col="text", shingle_k=5,
                                  emit_score=True).to_pandas()
    # mirrored half-away quantize: np.round is half-EVEN, DuckDB ROUND
    # half-away — a pair landing exactly on x.xxxx5 (e.g. 42/320 =
    # 0.13125 at sf0.001) diverges under .round(4); floor(x·1e4+0.5)
    # applied to the identical float is the same value on both sides
    out["jaccard"] = np.floor(out["jaccard"] * 1e4 + 0.5) / 1e4
    return out[["a", "b", "jaccard"]]


SQL_NGRAM_JACCARD = """
WITH pairs AS (
  SELECT doc_id AS a, doc_id + 250 AS b FROM documents WHERE doc_id < 250
),
sh AS (
  SELECT DISTINCT doc_id, substr(text, CAST(i AS INT), 5) AS g
  FROM (
    SELECT doc_id, text,
           unnest(generate_series(1, GREATEST(length(text) - 4, 1))) AS i
    FROM documents)
),
sizes AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT p.a, p.b, COUNT(*) AS ni
  FROM pairs p
  JOIN sh x ON x.doc_id = p.a
  JOIN sh y ON y.doc_id = p.b AND y.g = x.g
  GROUP BY p.a, p.b
)
SELECT p.a, p.b,
       FLOOR(CAST(COALESCE(i.ni, 0) AS DOUBLE)
             / (sa.n + sb.n - COALESCE(i.ni, 0)) * 1e4 + 0.5) / 1e4
         AS jaccard
FROM pairs p
JOIN sizes sa ON sa.doc_id = p.a
JOIN sizes sb ON sb.doc_id = p.b
LEFT JOIN inter i ON i.a = p.a AND i.b = p.b
"""


def q_langid_documents(sf_dir: str):
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = docs.map_batches(text.LangId, batch_format="pandas", concurrency=2)
    counts = out.groupby("lang_pred").count().to_pandas()
    counts = counts.rename(columns={"count()": "n"})
    return counts[["lang_pred", "n"]]


def _langid_sql() -> str:
    """SQL twin of stages.text.LangId: one regexp count per language profile,
    argmax with first-in-profile-order tie-breaking (the CASE chain mirrors
    numpy argmax's first-max semantics), 'und' when every count is zero.
    Alternation patterns are built from the SAME _LANG_PROFILES dict so the
    two sides cannot drift."""
    langs = list(text._LANG_PROFILES)
    pats = {
        lg: r"\b(?:" + "|".join(sorted(prof, key=len, reverse=True)) + r")\b"
        for lg, prof in text._LANG_PROFILES.items()}
    counts = ",\n    ".join(
        f"length(regexp_extract_all(lower(text), '{pats[lg]}')) AS c_{lg}"
        for lg in langs)
    all_c = ", ".join(f"c_{lg}" for lg in langs)
    branches = []
    for i, lg in enumerate(langs):
        conds = " AND ".join(f"c_{lg} >= c_{other}" for other in langs[i + 1:])
        branches.append(f"WHEN {conds or 'TRUE'} THEN '{lg}'")
    case = "\n      ".join(branches)
    return f"""
WITH scored AS (
  SELECT doc_id,
    {counts}
  FROM documents
),
pred AS (
  SELECT doc_id,
    CASE WHEN GREATEST({all_c}) = 0 THEN 'und'
      {case}
    END AS lang_pred
  FROM scored
)
SELECT lang_pred, CAST(COUNT(*) AS BIGINT) AS n FROM pred GROUP BY lang_pred
"""


SQL_LANGID = _langid_sql()


def q_fingerprint_documents(sf_dir: str):
    """Winnowing fingerprint per doc (min rolling-hash over 8-byte windows),
    emitted as int64 (two's-complement view of the u64 hash) so the DuckDB
    oracle — which computes the identical polynomial mod 2^64 in HUGEINT —
    lands on the same wire type.  The blake2b content_hash column stays on
    the stage output (exact dedup pins that path via SQL_EXACT_DEDUP) but is
    not SQL-expressible, so this query selects only the rolling fingerprint."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return docs.map_batches(text.fingerprint_batch, batch_format="pyarrow") \
        .select_columns(["doc_id", "fingerprint"])


def _fingerprint_sql(window: int = 8) -> str:
    """SQL twin of stages.text.fingerprint_batch: the rolling hash
    h(i) = fold(h*p + byte) mod 2^64 equals sum(byte_j * p^(w-1-j)) mod 2^64
    (mod is a ring hom), so each window is 8 lead() taps dotted with the
    precomputed powers p^(w-1-j) mod 2^64 — each term reduced before the sum
    so everything fits HUGEINT.  Bytes come from hex(encode(text)) pairs
    (UTF-8 bytes, same as Python .encode())."""
    M = 1 << 64
    prime = 1099511628211
    pows = [pow(prime, window - 1 - j, M) for j in range(window)]
    terms = [f"(CAST(byte AS HUGEINT) * {pows[0]}) % {M}"] + [
        f"(CAST(lead(byte, {j}) OVER win AS HUGEINT) * {pows[j]}) % {M}"
        for j in range(1, window)]
    terms_sql = "\n      + ".join(terms)
    return f"""
WITH b AS (
  SELECT doc_id, CAST(i AS INT) AS i,
         octet_length(encode(text)) AS n,
         CAST('0x' || substr(hex(encode(text)), 2*CAST(i AS INT)-1, 2) AS INT) AS byte
  FROM (SELECT doc_id, text,
               unnest(generate_series(1, octet_length(encode(text)))) AS i
        FROM documents)
),
w AS (
  SELECT doc_id, i, n,
    ( {terms_sql}
    ) % {M} AS h
  FROM b
  WINDOW win AS (PARTITION BY doc_id ORDER BY i)
),
m AS (
  SELECT doc_id, MIN(h) AS mh FROM w WHERE i <= n - {window - 1} GROUP BY doc_id
)
SELECT doc_id,
       CAST(CASE WHEN mh >= {1 << 63} THEN mh - {M} ELSE mh END AS BIGINT)
         AS fingerprint
FROM m
"""


SQL_FINGERPRINT = _fingerprint_sql()


def q_ann_ivf_recall(sf_dir: str):
    """IVF quality pin: recall@5 of the IVF probe vs the exact brute-force
    top-k, per query vector (rows-only; the recall floor is asserted in
    tests/test_training_ops.py)."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qrows = sorted(emb.filter(expr="vec_id < 3").take_all(),
                   key=lambda r: r["vec_id"])
    queries = np.array([r["embedding"] for r in qrows], dtype=np.float64)
    qids = [int(r["vec_id"]) for r in qrows]
    bf = similarity.ann_bruteforce(emb, queries, qids, k=5).to_pandas()
    C = similarity.train_centroids(emb, n_centroids=8)
    ivf = similarity.ann_ivf(emb, queries, qids, C, k=5, nprobe=4).to_pandas()
    rows = []
    for qid in qids:
        truth = set(bf.loc[bf.query_id == qid, "match_id"])
        got = set(ivf.loc[ivf.query_id == qid, "match_id"])
        rows.append({"query_id": qid,
                     "recall_at_5": len(truth & got) / max(1, len(truth))})
    return pd.DataFrame(rows)


def q_ann_ivf(sf_dir: str):
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qrows = sorted(emb.filter(expr="vec_id < 3").take_all(),
                   key=lambda r: r["vec_id"])
    queries = np.array([r["embedding"] for r in qrows], dtype=np.float64)
    qids = [int(r["vec_id"]) for r in qrows]
    C = similarity.train_centroids(emb, n_centroids=8)
    return similarity.ann_ivf(emb, queries, qids, C, k=5, nprobe=3)


def q_multimodal_decode(sf_dir: str):
    """Actor-pool media decode over real payloads: BMP / PCM-WAV /
    baseline JFIF (every other image is a REAL JPEG from the in-repo
    numpy codec); only the opaque video rows take the flagged digest
    fallback."""
    from ...stages.multimodal import decode_pipeline, synth_media_table
    ds = rd.from_arrow(synth_media_table(64, jpeg_every=2))
    return decode_pipeline(ds)


def q_media_perceptual_pairs(sf_dir: str):
    """Perceptual media near-dup: dHash (images) / spectral fingerprint
    (audio) in an actor pool, then the generic 4×16-bit banded-hamming
    pair shuffle — catches RESIZED/re-encoded copies the exact-payload
    path misses.  Rows-only (binary source); resize-pairing pinned by
    pytest."""
    from ...stages.multimodal import (encode_bmp, perceptual_dup_pairs,
                                     resize_nearest, synth_media_table)
    from ...stages.multimodal import decode_bmp
    base = synth_media_table(60)
    # add RESIZED copies of the first 5 images (ids r1000x) — not byte
    # duplicates, only perceptual ones
    extra = []
    bt = base.to_pylist()
    n_added = 0
    for row in bt:
        if row["kind"] == "image" and n_added < 5:
            px = decode_bmp(row["payload"])
            big = resize_nearest(px, px.shape[1] * 2, px.shape[0] * 2)
            extra.append({**row,
                          "media_id": f"r{1000 + n_added:05d}",
                          "payload": encode_bmp(big),
                          "width": px.shape[1] * 2,
                          "height": px.shape[0] * 2})
            n_added += 1
    ds = rd.from_items(bt + extra)
    out = perceptual_dup_pairs(ds, max_hamming=2).to_pandas()
    return out.sort_values(["a", "b"]).reset_index(drop=True)


def q_decontaminate_ngrams(sf_dir: str):
    """Benchmark decontamination (GPT-3 appendix C / Dodge et al.): docs
    with doc_id%50==0 form the held-out benchmark set; a deterministic
    7-word canary sentence is appended to docs with doc_id%17==0 on BOTH
    sides, so train docs carrying it share a 5-gram with the benchmark
    and must be flagged.  Per train doc: n-gram count, benchmark-
    overlapping n-gram count, contaminated fraction."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def enrich(batch: pa.Table) -> pa.Table:
        idn = batch["doc_id"].to_numpy(zero_copy_only=False)
        canary = pa.scalar(" the quick benchmark canary sentence for eval")
        t0 = pc.binary_join_element_wise(
            batch["text"],
            pc.if_else(pa.array(idn % 17 == 0), canary, pa.scalar("")), "")
        return pa.table({"doc_id": batch["doc_id"], "text": t0})

    enriched = docs.map_batches(enrich, batch_format="pyarrow")

    def side(keep_bench: bool):
        def f(batch: pa.Table) -> pa.Table:
            idn = batch["doc_id"].to_numpy(zero_copy_only=False)
            m = (idn % 50 == 0) if keep_bench else (idn % 50 != 0)
            return batch.filter(pa.array(m))
        return f

    bench = enriched.map_batches(side(True), batch_format="pyarrow")
    train = enriched.map_batches(side(False), batch_format="pyarrow")
    out = dd.decontaminate_ngrams(train, bench, key_col="doc_id",
                                  text_col="text", n=5)
    return out.select_columns(["doc_id", "n_ngrams", "n_contam",
                               "contam_frac"])


SQL_DECONTAMINATE = """
WITH e AS (
  SELECT doc_id, text || CASE WHEN doc_id % 17 = 0
         THEN ' the quick benchmark canary sentence for eval'
         ELSE '' END AS t0
  FROM documents),
w AS (SELECT doc_id, string_split(t0, ' ') AS w FROM e),
g AS (SELECT doc_id,
             w[CAST(i AS INT)] || ' ' || w[CAST(i AS INT) + 1] || ' ' ||
             w[CAST(i AS INT) + 2] || ' ' || w[CAST(i AS INT) + 3] || ' ' ||
             w[CAST(i AS INT) + 4] AS gram
      FROM (SELECT doc_id, w, unnest(generate_series(1, len(w) - 4)) AS i
            FROM w WHERE len(w) >= 5)),
bench AS (SELECT DISTINCT gram FROM g WHERE doc_id % 50 = 0),
t AS (SELECT * FROM g WHERE doc_id % 50 <> 0)
SELECT t.doc_id, COUNT(*) AS n_ngrams,
       CAST(SUM(CASE WHEN b.gram IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT)
         AS n_contam,
       ROUND(SUM(CASE WHEN b.gram IS NOT NULL THEN 1 ELSE 0 END)
             / CAST(COUNT(*) AS DOUBLE), 4) AS contam_frac
FROM t LEFT JOIN bench b USING (gram)
GROUP BY t.doc_id
"""


def q_domain_boilerplate(sf_dir: str):
    """Per-domain boilerplate detection: a per-source copyright footer is
    injected on doc_id%2==0 (~50% of each source's docs — boilerplate at
    the 30% threshold) and a rare promo banner on doc_id%7==0 (~14% —
    below it); the operator must count exactly the former per source."""
    docs = _read(sf_dir, "documents", ["doc_id", "source", "text"])

    def enrich(batch: pa.Table) -> pa.Table:
        idn = batch["doc_id"].to_numpy(zero_copy_only=False)
        j = pc.binary_join_element_wise
        z = pa.scalar("")
        foot = j(pa.array(np.full(len(idn), "\n\n(c) ")),
                 batch["source"],
                 pa.array(np.full(len(idn), " all rights reserved")), "")
        t0 = j(batch["text"],
               pc.if_else(pa.array(idn % 2 == 0), foot, z),
               pc.if_else(pa.array(idn % 7 == 0),
                          pa.scalar("\n\nRare promo banner"), z), "")
        return pa.table({"doc_id": batch["doc_id"],
                         "source": batch["source"], "text": t0})

    out = dd.domain_boilerplate_stats(
        docs.map_batches(enrich, batch_format="pyarrow"),
        min_frac=0.3, min_docs=2)
    return out.select_columns(["source", "n_docs", "n_boiler"])


SQL_DOMAIN_BOILER = """
WITH e AS (
  SELECT doc_id, source, text
    || CASE WHEN doc_id % 2 = 0
            THEN chr(10) || chr(10) || '(c) ' || source
                 || ' all rights reserved' ELSE '' END
    || CASE WHEN doc_id % 7 = 0
            THEN chr(10) || chr(10) || 'Rare promo banner' ELSE '' END AS t0
  FROM documents),
p AS (
  SELECT DISTINCT doc_id, source, para
  FROM (SELECT doc_id, source,
               unnest(string_split(t0, chr(10) || chr(10))) AS para
        FROM e)),
cnt AS (SELECT source, para, COUNT(*) AS nd FROM p GROUP BY source, para),
tot AS (SELECT source, COUNT(*) AS n_docs FROM documents GROUP BY source)
SELECT t.source, t.n_docs,
       CAST(COALESCE(SUM(CASE WHEN c.nd >= 2 AND c.nd >= 0.3 * t.n_docs
                              THEN 1 ELSE 0 END), 0) AS BIGINT) AS n_boiler
FROM tot t LEFT JOIN cnt c USING (source)
GROUP BY t.source, t.n_docs
"""


def q_heavy_hitter_words(sf_dir: str):
    """Misra-Gries heavy hitters (mergeable-summaries merge, Agarwal et
    al. PODS'12): bounded-memory corpus top-k — shuffle width is capped
    at capacity×batches no matter how wide the vocabulary.  At
    capacity=4096 ≥ the test vocabulary no decrement fires, so the
    sketch is exact and oracle-checkable; the N/(capacity+1) error bound
    at small capacity is pytest-pinned."""
    from ...stages import sketches
    docs = _read(sf_dir, "documents", ["text"])
    return sketches.heavy_hitter_words(docs, k=20, capacity=4096) \
        .select(["word", "n"])


SQL_HEAVY_HITTERS = """
SELECT w AS word, COUNT(*) AS n
FROM (SELECT unnest(string_split(text, ' ')) AS w FROM documents)
GROUP BY w ORDER BY n DESC, word ASC LIMIT 20
"""


def q_compression_quality(sf_dir: str):
    """Per-doc zlib compression-ratio quality signal (pure map, no
    shuffle).  Deterministic but not SQL-expressible — rows-only check;
    the repetitive<prose<noise ordering is pytest-pinned."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = docs.map_batches(text.compression_ratio_batch,
                           batch_format="pyarrow")
    return out.select_columns(["doc_id", "raw_bytes", "comp_bytes",
                               "compression_ratio"])


def q_pack_sequences(sf_dir: str):
    """LM sequence packing: concatenate the token stream in doc_id order
    and chunk into 256-token training windows; per doc report its token
    count and the first/last window it lands in.  Built on the
    distributed two-pass prefix sum (range buckets → driver exclusive
    scan over ≤64 bucket totals → per-bucket cumsum) — the global
    ORDER BY running total with no single-node sort."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def toks(batch: pa.Table) -> pa.Table:
        n = pc.list_value_length(
            pc.split_pattern(batch["text"], pattern=" ")).cast(pa.int64())
        return pa.table({"doc_id": batch["doc_id"], "n_tokens": n})

    cum = relational.global_prefix_sum(
        docs.map_batches(toks, batch_format="pyarrow"),
        order_col="doc_id", value_col="n_tokens")

    def windows(batch: pa.Table) -> pa.Table:
        c = batch["cum"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = batch["n_tokens"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({"doc_id": batch["doc_id"],
                         "n_tokens": pa.array(n),
                         "first_window": pa.array((c - n) // 256),
                         "last_window": pa.array((c - 1) // 256)})

    return cum.map_batches(windows, batch_format="pyarrow")


SQL_PACK_SEQUENCES = """
WITH t AS (
  SELECT doc_id, len(string_split(text, ' ')) AS n_tokens FROM documents),
c AS (
  SELECT doc_id, n_tokens,
         SUM(n_tokens) OVER (ORDER BY doc_id ROWS UNBOUNDED PRECEDING)
           AS cum
  FROM t)
SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
       (cum - n_tokens) // 256 AS first_window,
       (cum - 1) // 256 AS last_window
FROM c
"""


def q_bpe_merges(sf_dir: str):
    """Distributed BPE tokenizer training (8 merge rounds).  The corpus
    is touched once (word-frequency groupby); merge rounds iterate over
    the vocabulary-sized table.  Greedy iterative argmax isn't
    SQL-expressible — rows-only check; equality with a single-process
    reference BPE is pytest-pinned at two parallelism levels."""
    docs = _read(sf_dir, "documents", ["text"])
    return text.bpe_train(docs, num_merges=8)


def q_bm25_search(sf_dir: str):
    """BM25 ranked retrieval (Lucene's idf form) for the query
    'hash join batch': query-term explode filter inside the arrow pass,
    df/avglen from tiny partials, one (docs-with-terms)-sized scoring
    groupby, top-10."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return text.bm25_topk(docs, ["hash", "join", "batch"], k=10)


SQL_BM25 = """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS w
              FROM documents),
stats AS (SELECT COUNT(*) AS n, AVG(len(w)) AS avglen FROM toks),
tf AS (
  SELECT doc_id, x AS word, COUNT(*) AS tf
  FROM (SELECT doc_id, unnest(w) AS x FROM toks)
  WHERE x IN ('hash', 'join', 'batch')
  GROUP BY doc_id, x),
df AS (SELECT word, COUNT(*) AS df FROM tf GROUP BY word),
dl AS (SELECT doc_id, len(w) AS dl FROM toks),
sc AS (
  SELECT tf.doc_id,
         SUM(LN((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
             * tf.tf * (1.2 + 1.0)
             / (tf.tf + 1.2 * (1.0 - 0.75
                               + 0.75 * dl.dl / stats.avglen)))
           AS s
  FROM tf JOIN df USING (word) JOIN dl USING (doc_id)
  CROSS JOIN stats
  GROUP BY tf.doc_id)
SELECT doc_id, ROUND(s, 4) AS score FROM sc
ORDER BY score DESC, doc_id LIMIT 10
"""


def q_clean_lines(sf_dir: str):
    """Boilerplate line cleaning (jusText/Trafilatura shape): docs get
    deterministic nav-menu and number-row lines (like the paragraph
    fixture) and the cleaner must drop exactly those, keeping the body
    rejoined in order."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def enrich(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"]
        idn = ids.to_numpy(zero_copy_only=False)
        j = pc.binary_join_element_wise
        z = pa.scalar("")
        nav = pa.scalar("\nHome | About | Contact")
        nums = pa.scalar("\n12 345 6789 01")
        t0 = j(batch["text"],
               pc.if_else(pa.array(idn % 2 == 0), nav, z),
               pc.if_else(pa.array(idn % 7 == 0), nums, z), "")
        return pa.table({"doc_id": ids, "text": t0})

    return text.clean_lines(docs.map_batches(enrich,
                                             batch_format="pyarrow"))


SQL_CLEAN_LINES = """
WITH e AS (
  SELECT doc_id, text
    || CASE WHEN doc_id % 2 = 0
            THEN chr(10) || 'Home | About | Contact' ELSE '' END
    || CASE WHEN doc_id % 7 = 0
            THEN chr(10) || '12 345 6789 01' ELSE '' END AS t0
  FROM documents),
t AS (SELECT doc_id, string_split(t0, chr(10)) AS ls FROM e),
l AS (SELECT doc_id, i, ls[CAST(i AS INT)] AS line, len(ls) AS n_lines
      FROM (SELECT doc_id, ls,
                   unnest(generate_series(1, len(ls))) AS i FROM t)),
k AS (SELECT doc_id, i, line, n_lines,
             CASE WHEN len(regexp_extract_all(line, '\\S+')) >= 3
                   AND 2 * len(regexp_extract_all(line, '\\d'))
                       <= length(line)
                   AND NOT regexp_matches(line,
                       '[|' || chr(8226) || chr(187) || chr(183) || ']')
                  THEN 1 ELSE 0 END AS keep
      FROM l)
SELECT doc_id,
       COALESCE(STRING_AGG(CASE WHEN keep = 1 THEN line END,
                           chr(10) ORDER BY i), '') AS text_clean,
       MAX(n_lines) AS n_lines,
       CAST(SUM(keep) AS BIGINT) AS n_kept
FROM k GROUP BY doc_id
"""


def q_sample_fixed_docs(sf_dir: str):
    """Exact-size uniform sample (fixed token/doc budget): the 100 docs
    with the smallest golden-ratio key hash — a distributed top-n, only
    n·blocks candidates leave the workers."""
    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    return relational.exact_size_sample(docs, key_col="doc_id", n=100)


SQL_SAMPLE_FIXED = """
SELECT doc_id, lang FROM documents
ORDER BY ((CAST(doc_id + 1 AS HUGEINT) * 11400714819323198485)
          % 18446744073709551616), doc_id
LIMIT 100
"""


def q_bpe_token_counts(sf_dir: str):
    """Tokenizer application: count tokens per doc under the corpus's
    own trained BPE merges (the token-budget metric).  Merge table ships
    in the task closure; per-batch encoding runs over distinct words
    only.  Iterative merges aren't SQL-expressible — rows-only check;
    reference equality pytest-pinned."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    merges = text.bpe_train(docs, num_merges=8)
    return text.bpe_encode(docs, merges)


def q_logreg_score(sf_dir: str):
    """Broadcast-weights model inference: vectorized sigmoid(b + X·w)
    over per-doc features with fixed weights; the oracle computes the
    identical sigmoid in SQL."""
    from ...stages import ml
    feats = _doc_features(sf_dir)
    out = ml.logreg_score(feats, ["x1", "x2"], weights=[0.8, -0.5],
                          bias=0.25)
    return out.select_columns(["doc_id", "score"])


SQL_LOGREG_SCORE = """
WITH f AS (
  SELECT doc_id, n_chars / 1000.0 AS x1,
         len(string_split(text, ' ')) / 100.0 AS x2
  FROM documents)
SELECT doc_id,
       ROUND(1.0 / (1.0 + exp(-(0.25 + 0.8 * x1 - 0.5 * x2))), 6) AS score
FROM f
"""


def q_logreg_train(sf_dir: str):
    """Distributed logistic-regression training (5 full-batch GD epochs;
    each epoch ONE streaming pass reducing k-vector gradient partials —
    data never shuffles).  Iterative — rows-only; equality with a
    single-process numpy reference is pytest-pinned at two
    parallelisms."""
    from ...stages import ml
    feats = _doc_features(sf_dir)
    fit = ml.logreg_train(feats, ["x1", "x2"], "label", epochs=5, lr=0.5)
    return pd.DataFrame([{"bias": fit["bias"], "w1": fit["weights"][0],
                          "w2": fit["weights"][1], "n": fit["n"]}])


def q_nb_predict_lang(sf_dir: str):
    """Naive-Bayes bag-of-words classifier (the fastText-style corpus
    filter shape): train add-1-smoothed word likelihoods on the corpus
    with lang as the label, then re-score every doc — broadcast model,
    one vectorized merge + segment-sum per batch, integer/string output
    (argmax is robust to last-ulp drift, so this hash-matches)."""
    from ...stages import ml
    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    model = ml.nb_train(docs, text_col="text", label_col="lang")
    return ml.nb_predict(docs, model, text_col="text", id_col="doc_id")


SQL_NB_PREDICT = """
WITH words AS (
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
      FROM sc)
SELECT d.doc_id, len(string_split(d.text, ' ')) AS n_tokens,
       r.label AS pred_label
FROM documents d JOIN r ON r.doc_id = d.doc_id AND r.rn = 1
"""


def q_lm_perplexity(sf_dir: str):
    """CCNet-style bigram-LM fluency scoring: add-1-smoothed bigram
    model trained on the corpus, mean negative log-likelihood per doc
    (rounded 4dp)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return text.bigram_lm_scores(docs, key_col="doc_id",
                                 text_col="text")


SQL_LM_PERPLEXITY = """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS w
              FROM documents),
big AS (
  SELECT doc_id, w[CAST(i AS INT)] AS w1, w[CAST(i AS INT) + 1] AS w2
  FROM (SELECT doc_id, w, unnest(generate_series(1, len(w) - 1)) AS i
        FROM toks WHERE len(w) >= 2)),
bc AS (SELECT w1, w2, COUNT(*) AS c12 FROM big GROUP BY w1, w2),
cc AS (SELECT w1, SUM(c12) AS c1 FROM bc GROUP BY w1),
nv AS (SELECT COUNT(DISTINCT x) AS v
       FROM (SELECT unnest(w) AS x FROM toks)),
sc AS (
  SELECT b.doc_id, COUNT(*) AS n_bigrams,
         ROUND(-AVG(LN((bc.c12 + 1.0) / (cc.c1 + nv.v))), 4) AS nll
  FROM big b
  JOIN bc ON bc.w1 = b.w1 AND bc.w2 = b.w2
  JOIN cc ON cc.w1 = b.w1
  CROSS JOIN nv
  GROUP BY b.doc_id)
SELECT t.doc_id, COALESCE(sc.n_bigrams, 0) AS n_bigrams,
       COALESCE(sc.nll, 0.0) AS nll
FROM toks t LEFT JOIN sc ON sc.doc_id = t.doc_id
"""


def q_char_entropy(sf_dir: str):
    """Per-doc codepoint Shannon entropy (bits) — gibberish/binary-noise
    quality signal; pure vectorized map."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return docs.map_batches(text.char_entropy_batch,
                            batch_format="pyarrow")


SQL_CHAR_ENTROPY = """
WITH ch AS (SELECT doc_id, unnest(regexp_extract_all(text, '(?s).'))
              AS c FROM documents),
cnt AS (SELECT doc_id, c, COUNT(*) AS k FROM ch GROUP BY doc_id, c),
n AS (SELECT doc_id, SUM(k) AS nc FROM cnt GROUP BY doc_id)
SELECT d.doc_id,
       COALESCE(ROUND(-SUM((CAST(k AS DOUBLE) / n.nc)
                           * LOG2(CAST(k AS DOUBLE) / n.nc)), 4), 0.0)
         AS entropy
FROM documents d
LEFT JOIN cnt ON cnt.doc_id = d.doc_id
LEFT JOIN n ON n.doc_id = d.doc_id
GROUP BY d.doc_id
"""


def q_chunk_documents(sf_dir: str):
    """Context-window chunking: 32-token windows, 8-token overlap —
    the pre-tokenization flat-map for LM training / embedding indexing.
    Pure per-batch op, no shuffle."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return text.chunk_documents(docs, chunk_tokens=32, overlap_tokens=8)


SQL_CHUNKS = """
WITH t AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents),
c AS (SELECT doc_id, w,
             unnest(generate_series(
               0, CAST((GREATEST(len(w), 1) - 1) // 24 AS BIGINT))) AS j
      FROM t)
SELECT doc_id, j AS chunk_idx,
       array_to_string(w[CAST(j * 24 + 1 AS INT)
                         : CAST(j * 24 + 32 AS INT)], ' ') AS chunk_text,
       LEAST(j * 24 + 32, len(w)) - j * 24 AS n_tokens
FROM c
"""


def q_reassemble_roundtrip(sf_dir: str):
    """Chunk (zero overlap) then reassemble: ordered grouped
    concatenation (STRING_AGG ORDER BY) recovers every doc byte-exactly
    — ' '.join ∘ split(' ') is the identity, so the oracle is the
    documents table itself plus the closed-form chunk count."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    chunks = text.chunk_documents(docs, chunk_tokens=16,
                                  overlap_tokens=0)
    return text.reassemble_chunks(chunks)


SQL_REASSEMBLE = """
SELECT doc_id, text,
       CAST((GREATEST(len(string_split(text, ' ')), 1) - 1) // 16 + 1
            AS BIGINT) AS n_chunks
FROM documents
"""


def q_length_batches(sf_dir: str):
    """Length-bucketed batch assignment (padding-efficient LM batching):
    power-of-two token-length buckets, batches of 32 in doc order —
    distributed rank via the per-bucket range-partition prefix scan."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def toklen(t: pa.Table) -> pa.Table:
        n = pc.list_value_length(
            pc.split_pattern(t["text"], pattern=" ")).cast(pa.int64())
        return pa.table({"doc_id": t["doc_id"], "n_tokens": n})

    return relational.length_bucket_batches(
        docs.map_batches(toklen, batch_format="pyarrow"),
        id_col="doc_id", len_col="n_tokens", batch_size=32)


SQL_LENGTH_BATCHES = """
WITH t AS (SELECT doc_id,
                  len(string_split(text, ' ')) AS n_tokens
           FROM documents),
b AS (SELECT doc_id, n_tokens,
             CAST(length(bin(GREATEST(n_tokens, 1))) - 1 AS BIGINT)
               AS len_bucket
      FROM t)
SELECT doc_id, n_tokens, len_bucket,
       (ROW_NUMBER() OVER (PARTITION BY len_bucket ORDER BY doc_id)
          - 1) // 32 AS batch_idx
FROM b
"""


def q_mixture_sample(sf_dir: str):
    """Corpus-mixture sampling (LM data-recipe step): target lang
    proportions en .3 / de .2 / es .2 / fr .2 / zh .1; per-stratum keep
    rates derived from ONE tiny counting pass so the output hits the
    targets at the max supportable size; then a pure per-row hash
    filter."""
    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    return relational.mixture_sample(
        docs, key_col="doc_id", strata_col="lang",
        weights={"en": 0.3, "de": 0.2, "es": 0.2, "fr": 0.2,
                 "zh": 0.1})


SQL_MIXTURE = """
WITH n AS (SELECT lang, COUNT(*) AS ns FROM documents GROUP BY lang),
w(lang, w) AS (VALUES ('en', 0.3), ('de', 0.2), ('es', 0.2),
                      ('fr', 0.2), ('zh', 0.1)),
t AS (SELECT MIN(ns / w) AS t FROM n JOIN w USING (lang)),
r AS (SELECT lang, CAST(FLOOR(1000000.0 * w * t.t / ns) AS BIGINT)
        AS rate
      FROM n JOIN w USING (lang) CROSS JOIN t)
SELECT d.doc_id, d.lang FROM documents d JOIN r ON r.lang = d.lang
WHERE ((CAST(d.doc_id + 1 AS HUGEINT) * 11400714819323198485)
       % 18446744073709551616) % 1000000 < r.rate
"""


def q_pmi_unigram_collocations(sf_dir: str):
    """Collocation extraction: corpus top-20 adjacent pairs by PMI
    (min count 5) — one bigram groupby, vocabulary-sized margins,
    heavy-hitter prune tail."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return text.top_pmi_collocations(docs, k=20, min_count=5)


SQL_PMI_UNIGRAM = """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS w
              FROM documents),
big AS (
  SELECT w[CAST(i AS INT)] AS w1, w[CAST(i AS INT) + 1] AS w2
  FROM (SELECT w, unnest(generate_series(1, len(w) - 1)) AS i
        FROM toks WHERE len(w) >= 2)),
bc AS (SELECT w1, w2, COUNT(*) AS c12 FROM big GROUP BY w1, w2),
l AS (SELECT w1, SUM(c12) AS c1 FROM bc GROUP BY w1),
r AS (SELECT w2, SUM(c12) AS c2 FROM bc GROUP BY w2),
w AS (SELECT SUM(c12) AS tot FROM bc)
SELECT bc.w1, bc.w2, bc.c12,
       ROUND(LN(bc.c12 * (tot * 1.0) / ((c1 * 1.0) * c2)), 4) AS pmi
FROM bc JOIN l USING (w1) JOIN r USING (w2) CROSS JOIN w
WHERE bc.c12 >= 5
ORDER BY pmi DESC, w1, w2 LIMIT 20
"""


def q_fuzzy_entity_clusters(sf_dir: str):
    """Entity resolution end-to-end: the fuzzy pairs feed the existing
    connected-components kernel; every matched record gets the min
    reachable id as its entity label (clean ids < 1e6 < dirty ids, so
    labels are the canonical clean record where one exists)."""
    return _fuzzy_cluster_labels(sf_dir)


def q_jsonl_source_stats(sf_dir: str):
    """JSONL source/sink parity: documents round-trip through the
    line-delimited JSON interchange format (written once to /tmp,
    _DONE-marked), then aggregate per lang from the JSONL READ — the
    oracle aggregates the original parquet, so any reader/writer
    corruption breaks the hash."""
    import glob
    import hashlib
    import os
    import uuid

    from ray.data.aggregate import Sum

    from ...io import codecs
    # cache keyed by a CONTENT fingerprint of the input parquet (name +
    # size + mtime per file): regenerated-in-place fixtures get a fresh
    # cache dir instead of silently reusing a stale one, and the
    # write-to-unique-tmp + atomic rename makes concurrent runs safe
    # (ADVICE r3)
    h = hashlib.md5()
    for f in sorted(glob.glob(os.path.join(sf_dir, "documents*"))):
        st = os.stat(f)
        h.update(f"{os.path.basename(f)}:{st.st_size}:"
                 f"{st.st_mtime_ns}".encode())
    tag = os.path.basename(os.path.normpath(sf_dir))
    out = f"/tmp/prclz_ray_jsonl_{tag}_{h.hexdigest()[:12]}"
    if not os.path.isdir(out):
        tmp = f"{out}.tmp-{uuid.uuid4().hex}"
        codecs.write_jsonl(_read(sf_dir, "documents",
                                 ["doc_id", "text", "lang", "n_chars"]),
                           tmp)
        try:
            os.rename(tmp, out)
        except OSError:            # concurrent run won the rename race
            import shutil
            shutil.rmtree(tmp, ignore_errors=True)
    docs = codecs.read_jsonl(out)

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "lang": t["lang"].to_numpy(zero_copy_only=False),
            "n_chars": t["n_chars"].to_numpy(zero_copy_only=False),
            "tlen": pc.utf8_length(t["text"])
            .to_numpy(zero_copy_only=False)})
        g = df.groupby("lang", sort=False).agg(
            n_docs=("lang", "size"), sum_chars=("n_chars", "sum"),
            sum_text_len=("tlen", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    return docs.map_batches(partial, batch_format="pyarrow") \
        .groupby("lang") \
        .aggregate(Sum("n_docs", alias_name="n_docs"),
                   Sum("sum_chars", alias_name="sum_chars"),
                   Sum("sum_text_len", alias_name="sum_text_len"))


SQL_JSONL_STATS = """
SELECT lang, COUNT(*) AS n_docs, SUM(n_chars) AS sum_chars,
       SUM(length(text)) AS sum_text_len
FROM documents GROUP BY lang
"""


def q_auc_doc_score(sf_dir: str):
    """Exact distributed ROC AUC (Mann-Whitney U, tie-corrected) of the
    logreg document scorer against a length-derived label: per-batch
    (score, pos, neg) partials, one bounded groupby (6-dp sigmoid
    scores quantize to <=1e6 distinct values), single vectorized sweep.
    Per-score contributions are half-integers — exact in float64 — so
    the oracle's window-function twin rounds identically."""
    from ...stages import ml
    return ml.distributed_auc(_doc_logreg_scored(sf_dir), "score",
                              "label")


SQL_AUC = """
WITH f AS (
  SELECT n_chars / 1000.0 AS x1,
         len(string_split(text, ' ')) / 100.0 AS x2,
         CASE WHEN n_chars > 297 THEN 1 ELSE 0 END AS label
  FROM documents),
s AS (SELECT ROUND(1.0 / (1.0 + exp(-(0.25 + 0.8 * x1 - 0.5 * x2))), 6)
        AS score, label FROM f),
g AS (SELECT score, SUM(label) AS np, SUM(1 - label) AS nn
      FROM s GROUP BY score),
o AS (SELECT score, np, nn,
             COALESCE(SUM(nn) OVER (ORDER BY score
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
               AS cneg
      FROM g)
SELECT ROUND(SUM(np * (cneg + nn / 2.0))
             / ((SELECT SUM(np) FROM g) * (SELECT SUM(nn) FROM g)), 6)
         AS auc
FROM o
"""


def q_weighted_sample_docs(sf_dir: str):
    """Weighted sampling without replacement (A-ES exponential keys):
    100 docs weighted by n_chars — longer docs proportionally likelier,
    fully deterministic (golden-hash uniforms, no RNG state)."""
    docs = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    out = relational.weighted_sample(docs, key_col="doc_id",
                                     weight_col="n_chars", n=100)
    return out.to_pandas() if hasattr(out, "to_pandas") else out


SQL_WEIGHTED_SAMPLE = """
SELECT doc_id, n_chars FROM (
  SELECT doc_id, n_chars,
         ((CAST(doc_id + 1 AS HUGEINT) * 11400714819323198485)
          % 18446744073709551616) AS hv
  FROM documents)
ORDER BY ln((CAST(hv AS DOUBLE) + 1) / 18446744073709551616.0)
         / n_chars DESC, doc_id
LIMIT 100
"""


_PROJ_SEED_MATRIX = np.random.default_rng(42).standard_normal((64, 4))


def q_embedding_projection(sf_dir: str):
    """Johnson-Lindenstrauss random projection: 64-dim embeddings onto 4
    fixed Gaussian directions (seeded once at module load; the SQL twin
    embeds the identical float64 literals).  Pure per-batch matmul — the
    dimensionality-reduction front of every embedding pipeline."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    proj = _PROJ_SEED_MATRIX

    def f(t: pa.Table) -> pa.Table:
        from ...stages.similarity import _as_matrix
        m = _as_matrix(t["embedding"]).astype(np.float64)
        p = np.round(m @ proj, 6)
        cols = {"vec_id": t["vec_id"]}
        for j in range(proj.shape[1]):
            cols[f"p{j}"] = pa.array(p[:, j], type=pa.float64())
        return pa.table(cols)

    return emb.map_batches(f, batch_format="pyarrow")


def _sql_embedding_projection() -> str:
    cols = ", ".join(
        "ROUND(" + " + ".join(
            f"CAST(embedding[{i + 1}] AS DOUBLE) * "
            f"{float(_PROJ_SEED_MATRIX[i, j])!r}"
            for i in range(64)) + f", 6) AS p{j}"
        for j in range(4))
    return f"SELECT vec_id, {cols} FROM embeddings"


SQL_EMB_PROJECTION = _sql_embedding_projection()


def q_jaccard_threshold_pairs(sf_dir: str):
    """EXACT Jaccard >= 0.8 self-join over documents via AllPairs prefix
    filtering — recall-complete (every true pair is a candidate, unlike
    MinHash banding), verified by the candidate-restricted jaccard
    verifier.  The oracle is the exhaustive shingle self-join."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"]).repartition(32)
    return dd.allpairs_jaccard(docs, key_col="doc_id", text_col="text",
                               jaccard_threshold=0.8, shingle_k=5)


SQL_JACCARD_PAIRS = """
WITH sh AS (
  SELECT DISTINCT doc_id, substr(text, CAST(i AS INT), 5) AS g
  FROM (SELECT doc_id, text,
        unnest(generate_series(1, GREATEST(length(text) - 4, 1))) AS i
        FROM documents)),
sizes AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT x.doc_id AS a, y.doc_id AS b, COUNT(*) AS ni
  FROM sh x JOIN sh y ON x.g = y.g AND x.doc_id < y.doc_id
  GROUP BY 1, 2)
SELECT i.a, i.b FROM inter i
JOIN sizes sa ON sa.doc_id = i.a
JOIN sizes sb ON sb.doc_id = i.b
WHERE CAST(i.ni AS DOUBLE) / (sa.n + sb.n - i.ni) >= 0.8
"""

SQL_FUZZY_PAIRS = SQL_FUZZY_BASE + "SELECT a, b, dist FROM pairs"


def q_sentence_stats_by_lang(sf_dir: str):
    """Sentence segmentation stats (the doc-shape profile a curriculum
    / quality pass reads): per lang, doc count, total sentences
    (nonempty [.!?]+-delimited segments), avg sentences per doc and avg
    sentence char length.  Pure per-batch arrow pass — RE2 split via
    pc.split_pattern_regex, per-doc counts from list offsets with a
    cumsum-diff (reduceat mis-handles empty lists), whitespace set
    pinned to match the SQL twin's trim charset — then a lang-keyed
    partial combine."""
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["lang", "text"])
    ws = " \t\n\r\x0b\x0c"

    def stats(t: pa.Table) -> pa.Table:
        col = t["text"].combine_chunks()
        if isinstance(col, pa.ChunkedArray):
            col = col.chunk(0) if col.num_chunks == 1 else \
                pa.concat_arrays(col.chunks)
        parts = pc.split_pattern_regex(col, pattern="[.!?]+")
        offs = parts.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        vals = pc.utf8_trim(parts.values, characters=ws)
        lens = pc.utf8_length(vals).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ne = (lens > 0).astype(np.int64)
        cs = np.concatenate([[0], np.cumsum(ne)])
        ns = cs[offs[1:]] - cs[offs[:-1]]
        csl = np.concatenate([[0], np.cumsum(lens * ne)])
        tc = csl[offs[1:]] - csl[offs[:-1]]
        g = pd.DataFrame({"lang": t["lang"].to_numpy(zero_copy_only=False),
                          "pn": 1, "ps": ns, "ptc": tc}) \
            .groupby("lang", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = docs.map_batches(stats, batch_format="pyarrow") \
        .groupby("lang").aggregate(Sum("pn", alias_name="n_docs"),
                                   Sum("ps", alias_name="sentences"),
                                   Sum("ptc", alias_name="tc"))

    def fin(t: pa.Table) -> pa.Table:
        nd = t["n_docs"].to_numpy(zero_copy_only=False).astype(np.int64)
        ns = t["sentences"].to_numpy(zero_copy_only=False).astype(np.int64)
        tc = t["tc"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "lang": t["lang"],
            "n_docs": pa.array(nd),
            "sentences": pa.array(ns),
            "avg_doc_sentences": pa.array(np.round(ns * 1.0 / nd, 4)),
            "avg_sentence_chars": pa.array(
                np.round(tc * 1.0 / np.maximum(ns, 1), 4))})

    return agg.map_batches(fin, batch_format="pyarrow")


SQL_SENTENCE_STATS = """
WITH s AS (
  SELECT lang,
         list_filter(list_transform(
           regexp_split_to_array(text, '[.!?]+'),
           x -> trim(x, ' ' || chr(9) || chr(10) || chr(13)
                     || chr(11) || chr(12))),
           x -> length(x) > 0) AS sl
  FROM documents),
p AS (SELECT lang, len(sl) AS ns,
             COALESCE(list_sum(list_transform(sl, x -> length(x))), 0)
               AS tc
      FROM s)
SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(ns) AS BIGINT) AS sentences,
       ROUND(SUM(ns) * 1.0 / COUNT(*), 4) AS avg_doc_sentences,
       ROUND(SUM(tc) * 1.0 / GREATEST(SUM(ns), 1), 4)
         AS avg_sentence_chars
FROM p GROUP BY lang
"""


def q_rrf_fusion_search(sf_dir: str):
    """Reciprocal-rank fusion of two retrieval channels (the standard
    hybrid-search merge): BM25 top-100 for 'hash join batch' over
    documents, and int-quantized dot-product (MIPS, the int8-style
    quantized retrieval real ANN systems run) top-100 vs the vec_id-0
    embedding — fused(id) = Σ_channels 1/(60+rank), top-15 by
    (fused DESC, id).  The MIPS channel quantizes each float to
    floor(x*1000 + 0.5) and ranks by the EXACT integer dot product, so
    channel ranks are bit-stable vs the SQL twin (float cosine rank
    order at k=100 is not); BM25 ranks use the 4dp-rounded scores the
    hash-green bm25 pipeline pins.  Both channels are the existing
    scale-safe shapes (per-batch partial top-k, bounded merges); the
    fusion itself touches 200 rows."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    bm = text.bm25_topk(docs, ["hash", "join", "batch"], k=100,
                        round_to=4)
    bm = bm.sort_values(["score", "doc_id"],
                        ascending=[False, True]).reset_index(drop=True)
    bm_rank = {int(d): r + 1 for r, d in enumerate(bm["doc_id"])}

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qrow = emb.filter(expr="vec_id == 0").take_all()
    qv = np.floor(np.asarray(qrow[0]["embedding"], dtype=np.float64)
                  * 1000.0 + 0.5).astype(np.int64)
    qref = ray.put(qv)

    def mips_partial(t: pa.Table) -> pa.Table:
        q = ray.get(qref)
        arr = t["embedding"].combine_chunks()
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.chunk(0) if arr.num_chunks == 1 else \
                pa.concat_arrays(arr.chunks)
        offs = np.diff(arr.offsets.to_numpy(zero_copy_only=False))
        flat = arr.flatten().to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        m = np.floor(flat * 1000.0 + 0.5).astype(np.int64) \
            .reshape(len(offs), offs[0] if len(offs) else 0)
        s = m @ q
        ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(s) > 100:                      # batch-local safe prune
            order = np.lexsort((ids, -s))[:100]
            ids, s = ids[order], s[order]
        return pa.table({"doc_id": pa.array(ids), "s": pa.array(s)})

    mt = relational.ds_to_table(
        emb.map_batches(mips_partial, batch_format="pyarrow")).to_pandas()
    mt = mt.sort_values(["s", "doc_id"],
                        ascending=[False, True]).head(100) \
        .reset_index(drop=True)
    mips_rank = {int(d): r + 1 for r, d in enumerate(mt["doc_id"])}

    fused = {}
    for d, r in bm_rank.items():
        fused[d] = fused.get(d, 0.0) + 1.0 / (60 + r)
    for d, r in mips_rank.items():
        fused[d] = fused.get(d, 0.0) + 1.0 / (60 + r)
    out = pd.DataFrame({"doc_id": list(fused), "rrf_score":
                        [fused[d] for d in fused]})
    out = out.sort_values(["rrf_score", "doc_id"],
                          ascending=[False, True]).head(15)
    return out.reset_index(drop=True)


SQL_RRF = """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS w
              FROM documents),
stats AS (SELECT COUNT(*) AS n, AVG(len(w)) AS avglen FROM toks),
tf AS (SELECT doc_id, x AS word, COUNT(*) AS tf
       FROM (SELECT doc_id, unnest(w) AS x FROM toks)
       WHERE x IN ('hash', 'join', 'batch') GROUP BY doc_id, x),
df AS (SELECT word, COUNT(*) AS df FROM tf GROUP BY word),
dl AS (SELECT doc_id, len(w) AS dl FROM toks),
sc AS (SELECT tf.doc_id,
              SUM(LN((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                  * tf.tf * (1.2 + 1.0)
                  / (tf.tf + 1.2 * (1.0 - 0.75
                                    + 0.75 * dl.dl / stats.avglen)))
                AS s
       FROM tf JOIN df USING (word) JOIN dl USING (doc_id)
       CROSS JOIN stats GROUP BY tf.doc_id),
bq AS (SELECT doc_id, ROW_NUMBER() OVER (ORDER BY ROUND(s, 4) DESC,
                                         doc_id) AS r
       FROM sc QUALIFY r <= 100),
qv AS (SELECT list_transform(embedding,
              x -> FLOOR(CAST(x AS DOUBLE) * 1000 + 0.5)) AS qe
       FROM embeddings WHERE vec_id = 0),
mips AS (SELECT e.vec_id AS doc_id,
                CAST(list_dot_product(qv.qe, list_transform(e.embedding,
                     x -> FLOOR(CAST(x AS DOUBLE) * 1000 + 0.5)))
                     AS BIGINT) AS s
         FROM embeddings e, qv),
cq AS (SELECT doc_id, ROW_NUMBER() OVER (ORDER BY s DESC, doc_id) AS r
       FROM mips QUALIFY r <= 100),
u AS (SELECT COALESCE(b.doc_id, c.doc_id) AS doc_id,
             COALESCE(1.0 / (60 + b.r), 0.0)
               + COALESCE(1.0 / (60 + c.r), 0.0) AS f
      FROM bq b FULL OUTER JOIN cq c ON b.doc_id = c.doc_id)
SELECT doc_id, f AS rrf_score FROM u
ORDER BY f DESC, doc_id LIMIT 15
"""


def q_ipc_source_stats(sf_dir: str):
    """Arrow IPC (Feather v2) source/sink parity: documents round-trip
    through the zero-copy interchange format (written once per input
    fingerprint to /tmp, same cache discipline as the JSONL twin),
    then aggregate per lang FROM THE IPC READ — the oracle aggregates
    the original parquet, so any writer/reader corruption breaks the
    hash."""
    import glob
    import hashlib
    import os
    import uuid

    from ray.data.aggregate import Sum

    from ...io import codecs

    h = hashlib.md5()
    for f in sorted(glob.glob(os.path.join(sf_dir, "documents*"))):
        st = os.stat(f)
        h.update(f"{os.path.basename(f)}:{st.st_size}:"
                 f"{st.st_mtime_ns}".encode())
    tag = os.path.basename(os.path.normpath(sf_dir))
    out = f"/tmp/prclz_ray_ipc_{tag}_{h.hexdigest()[:12]}"
    if not os.path.isdir(out):
        tmp = f"{out}.tmp-{uuid.uuid4().hex}"
        codecs.write_ipc(_read(sf_dir, "documents",
                               ["doc_id", "lang", "n_chars"]), tmp)
        try:
            os.rename(tmp, out)
        except OSError:            # concurrent run won the rename
            import shutil
            shutil.rmtree(tmp, ignore_errors=True)

    docs = codecs.read_ipc(out)

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table({"lang": t["lang"], "nc": t["n_chars"]}) \
            .group_by("lang").aggregate([("nc", "sum"),
                                         ([], "count_all")])
        return pa.table({"lang": g["lang"],
                         "pc_": g["nc_sum"].cast(pa.int64()),
                         "pn": g["count_all"].cast(pa.int64())})

    return docs.map_batches(partial, batch_format="pyarrow") \
        .groupby("lang").aggregate(Sum("pn", alias_name="n_docs"),
                                   Sum("pc_", alias_name="total_chars"))


SQL_IPC_STATS = """
SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(n_chars) AS BIGINT) AS total_chars
FROM documents GROUP BY lang
"""


def q_csv_quarantine_stats(sf_dir: str):
    """Torn-line-tolerant CSV ingest: the corpus exports to headerless
    CSV with DETERMINISTIC corruption (every doc_id % 97 == 7 row loses
    its last field — a 100 TB crawl always contains torn lines), then
    the quarantine reader routes malformed rows aside in the same
    streaming pass and the good rows aggregate per lang.  The oracle
    aggregates the original parquet under the same % 97 rule, so a
    reader that silently accepts or drops the wrong rows breaks the
    hash.  Validation is vectorized (Arrow split + list-length, pandas
    coerce) — no per-row try/except."""
    import glob
    import hashlib
    import os
    import uuid

    from ray.data.aggregate import Sum

    from ...io import codecs
    h = hashlib.md5()
    for f in sorted(glob.glob(os.path.join(sf_dir, "documents*"))):
        st = os.stat(f)
        h.update(f"{os.path.basename(f)}:{st.st_size}:"
                 f"{st.st_mtime_ns}".encode())
    tag = os.path.basename(os.path.normpath(sf_dir))
    out = f"/tmp/prclz_ray_csvq_{tag}_{h.hexdigest()[:12]}"
    if not os.path.isdir(out):
        tmp = f"{out}.tmp-{uuid.uuid4().hex}"

        def to_csv_lines(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            langs = t["lang"].to_numpy(zero_copy_only=False)
            nch = t["n_chars"].to_numpy(zero_copy_only=False)
            torn = (ids % 97) == 7
            full = np.char.add(np.char.add(np.char.add(np.char.add(
                ids.astype("U20"), ","), langs.astype("U8")), ","),
                nch.astype("U20"))
            short = np.char.add(np.char.add(
                ids.astype("U20"), ","), langs.astype("U8"))
            return pa.table({"text": pa.array(
                np.where(torn, short, full))})

        ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"]) \
            .map_batches(to_csv_lines, batch_format="pyarrow")
        os.makedirs(tmp, exist_ok=True)

        def write_block(t: pa.Table) -> pa.Table:
            # raw-text block writer (a CSV writer would quote the
            # already-joined lines); manifest row per block
            name = os.path.join(tmp, f"part-{uuid.uuid4().hex}.txt")
            with open(name, "w") as f:
                f.write("\n".join(t["text"].to_pylist()) + "\n")
            return pa.table({"path": pa.array([name])})

        mani = relational.ds_to_table(
            ds.map_batches(write_block, batch_format="pyarrow"))
        # side-effect writes are NOT exactly-once under Ray retries /
        # schema probes — only files the MANIFEST names are real (the
        # write_ipc contract); orphans from replayed tasks get dropped
        # with the tmp dir
        import shutil
        fin = f"{out}.fin-{uuid.uuid4().hex}"
        os.makedirs(fin)
        for i, p in enumerate(sorted(mani["path"].to_pylist())):
            os.rename(p, os.path.join(fin, f"part-{i:05d}.txt"))
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rename(fin, out)
        except OSError:
            shutil.rmtree(fin, ignore_errors=True)

    parsed = codecs.read_csv_quarantine(
        [os.path.join(out, f) for f in sorted(os.listdir(out))],
        columns=["doc_id", "lang", "n_chars"],
        int_cols=["doc_id", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        good = df[~df["_quarantined"]]
        g = good.groupby("lang", sort=False).agg(
            pn=("lang", "size"), pc_=("n_chars", "sum")).reset_index()
        g["pc_"] = g["pc_"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    res = relational.ds_to_table(
        parsed.map_batches(partial, batch_format="pyarrow")
        .groupby("lang").aggregate(Sum("pn", alias_name="n_docs"),
                                   Sum("pc_", alias_name="sum_chars"))
    ).to_pandas().sort_values("lang").reset_index(drop=True)
    return res.astype({"n_docs": np.int64, "sum_chars": np.int64})


SQL_CSV_QUARANTINE = """
SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(n_chars) AS BIGINT) AS sum_chars
FROM documents WHERE doc_id % 97 <> 7
GROUP BY 1 ORDER BY 1
"""


def q_pca_top_component(sf_dir: str):
    """Top principal component of the embeddings table via the
    exact-integer-covariance PCA stage: quantized Gram/sum partials
    ride the (hi, lo) split, so the reduction is bit-identical at ANY
    partitioning — the eigensolve runs once on the d×d driver-side
    covariance (d = embedding width, never rows).  Not SQL-expressible
    (eigendecomposition); pinned instead by partition-invariance +
    reconstruction pytest."""
    from ...stages import similarity
    emb = _read(sf_dir, "embeddings", ["embedding"])
    vecs, ratio, n = similarity.embeddings_pca(emb, "embedding", top=1)
    d = vecs.shape[0]
    return pd.DataFrame({
        "dim": np.arange(d, dtype=np.int64),
        "loading": np.round(vecs[:, 0], 6),
        "evr": np.round(np.full(d, ratio[0]), 6),
        "n_rows": np.full(d, n, dtype=np.int64)})


def q_orc_source_stats(sf_dir: str):
    """Apache ORC source/sink parity: documents round-trip through ORC
    (manifest-adopted files only, fingerprint-cached once per input),
    then aggregate per source FROM THE ORC READ — the oracle aggregates
    the original parquet, so any writer/reader corruption breaks the
    hash."""
    import json
    import os
    import uuid

    from ray.data.aggregate import Max, Sum

    from ...io import codecs

    out = _fingerprint_cache_dir(sf_dir, "documents", "orc")
    manifest = os.path.join(out, "_MANIFEST.json")
    if not os.path.isfile(manifest):
        tmp = f"{out}.tmp-{uuid.uuid4().hex}"
        m = codecs.write_orc(_read(sf_dir, "documents",
                                   ["doc_id", "source", "n_chars"]),
                             tmp).to_pandas()
        files = [os.path.basename(f) for f in m["file"]]
        with open(os.path.join(tmp, "_MANIFEST.json"), "w") as fh:
            json.dump(files, fh)
        try:
            os.rename(tmp, out)
        except OSError:            # concurrent run won the rename
            import shutil
            shutil.rmtree(tmp, ignore_errors=True)
    with open(manifest) as fh:
        files = [os.path.join(out, f) for f in json.load(fh)]

    docs = codecs.read_orc(files)

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "source": t["source"].to_numpy(zero_copy_only=False),
            "nc": t["n_chars"].to_numpy(zero_copy_only=False)})
        g = df.groupby("source", sort=False).agg(
            pn=("nc", "size"), pc_=("nc", "sum"),
            pm=("nc", "max")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    o = relational.ds_to_table(
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("source").aggregate(
            Sum("pn", alias_name="n_docs"),
            Sum("pc_", alias_name="total_chars"),
            Max("pm", alias_name="max_chars"))
    ).to_pandas().sort_values("source").reset_index(drop=True)
    return o.astype({"n_docs": np.int64, "total_chars": np.int64,
                     "max_chars": np.int64})


SQL_ORC_STATS = """
SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(n_chars) AS BIGINT) AS total_chars,
       CAST(MAX(n_chars) AS BIGINT) AS max_chars
FROM documents GROUP BY source ORDER BY source
"""


def q_schema_evolution_stats(sf_dir: str):
    """Schema-evolution read: half the corpus is re-written at an
    OLDER schema version (no n_chars column), the other half at the
    current one; ``read_parquet_union_by_name`` aligns by column name
    and null-fills the missing column — the v1/v2-mixed-lake situation
    every long-lived pipeline hits.  Split rule doc_id % 2 so the
    oracle can reproduce the null pattern from the original table."""
    import os
    import uuid

    from ray.data.aggregate import Count, Sum

    from ...io import codecs

    out = _fingerprint_cache_dir(sf_dir, "documents", "schevo")
    if not os.path.isdir(out):
        tmp = f"{out}.tmp-{uuid.uuid4().hex}"
        os.makedirs(tmp, exist_ok=True)
        t = relational.ds_to_table(
            _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"]))
        even = pc.equal(pc.bit_wise_and(t["doc_id"], 1), 0)
        import pyarrow.parquet as pq_
        pq_.write_table(t.filter(even).select(["doc_id", "lang"]),
                        os.path.join(tmp, "v1.parquet"))
        pq_.write_table(t.filter(pc.invert(even)),
                        os.path.join(tmp, "v2.parquet"))
        try:
            os.rename(tmp, out)
        except OSError:
            import shutil
            shutil.rmtree(tmp, ignore_errors=True)

    files = [os.path.join(out, "v1.parquet"),
             os.path.join(out, "v2.parquet")]
    docs = codecs.read_parquet_union_by_name(files)

    def partial(t: pa.Table) -> pa.Table:
        nc = t["n_chars"]
        df = pd.DataFrame({
            "lang": t["lang"].to_numpy(zero_copy_only=False),
            "pn": 1,
            "pmiss": pc.is_null(nc).to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "pc_": nc.fill_null(0).to_numpy(zero_copy_only=False)})
        g = df.groupby("lang", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    o = relational.ds_to_table(
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("lang").aggregate(
            Sum("pn", alias_name="n_docs"),
            Sum("pmiss", alias_name="n_missing"),
            Sum("pc_", alias_name="chars_known"))
    ).to_pandas().sort_values("lang").reset_index(drop=True)
    return o.astype({"n_docs": np.int64, "n_missing": np.int64,
                     "chars_known": np.int64})


SQL_SCHEMA_EVOLUTION = """
SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(CASE WHEN doc_id % 2 = 0 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_missing,
       CAST(SUM(CASE WHEN doc_id % 2 = 0 THEN 0 ELSE n_chars END)
            AS BIGINT) AS chars_known
FROM documents GROUP BY lang ORDER BY lang
"""


def q_pmi_collocations(sf_dir: str):
    """Top-20 PMI collocations over the document corpus — see
    ``text.pmi_collocations`` for the two-vocabulary-aggregation scale
    shape (rare-bigram filter BEFORE any join; size-guarded unigram
    broadcast with bucketed fallback)."""
    docs = _read(sf_dir, "documents", ["text"])
    t = text.pmi_collocations(docs, text_col="text", min_count=5, k=20)
    out = t.to_pandas()
    out["pmi"] = np.round(out["pmi"], 6)
    return out.astype({"c_ab": np.int64})


SQL_PMI = """
WITH toks AS (SELECT string_split(text, ' ') AS w FROM documents),
big AS (SELECT w[CAST(i AS INT)] || ' ' || w[CAST(i AS INT) + 1]
          AS bigram,
               w[CAST(i AS INT)] AS w1, w[CAST(i AS INT) + 1] AS w2
        FROM (SELECT w, unnest(generate_series(1, len(w) - 1)) AS i
              FROM toks WHERE len(w) >= 2)),
bc AS (SELECT bigram, MIN(w1) AS w1, MIN(w2) AS w2,
              CAST(COUNT(*) AS BIGINT) AS c_ab
       FROM big GROUP BY bigram),
uni AS (SELECT u AS word, CAST(COUNT(*) AS BIGINT) AS c_w
        FROM (SELECT unnest(w) AS u FROM toks) GROUP BY 1),
tot AS (SELECT (SELECT SUM(c_ab) FROM bc) AS nb,
               (SELECT SUM(c_w) FROM uni) AS nw)
SELECT bigram, c_ab,
       ROUND(LN((CAST(c_ab AS DOUBLE) / nb)
                / ((CAST(a.c_w AS DOUBLE) / nw)
                   * (CAST(b.c_w AS DOUBLE) / nw))), 6) AS pmi
FROM bc JOIN uni a ON bc.w1 = a.word
        JOIN uni b ON bc.w2 = b.word, tot
WHERE c_ab >= 5
ORDER BY LN((CAST(c_ab AS DOUBLE) / nb)
            / ((CAST(a.c_w AS DOUBLE) / nw)
               * (CAST(b.c_w AS DOUBLE) / nw))) DESC, bigram ASC
LIMIT 20
"""


def q_media_thumbnails(sf_dir: str):
    """Thumbnail generation over the deterministic synthetic media
    table: actor-pool decode → 8×8 nearest-resize → BMP re-encode,
    exact per-channel pixel sums as the integrity signal.  Rows-only
    (binary source isn't SQL-visible); the resize/re-encode round trip
    is pinned by pytest (re-decoding the emitted thumb reproduces the
    sums)."""
    from ...stages.multimodal import ThumbnailEncoder, synth_media_table
    ds = rd.from_arrow(synth_media_table(64))
    out = ds.map_batches(ThumbnailEncoder, batch_format="pyarrow",
                         batch_size=16, concurrency=(1, 2),
                         zero_copy_batch=True)
    df = relational.ds_to_table(
        out.select_columns(["media_id", "sum_r", "sum_g", "sum_b",
                            "is_image"])
    ).to_pandas().sort_values("media_id").reset_index(drop=True)
    return df.astype({"sum_r": np.int64, "sum_g": np.int64,
                      "sum_b": np.int64})


def q_window_cooccurrence(sf_dir: str):
    """Skip-gram word co-occurrence within a ±3-token window (the
    GloVe/word2vec X-matrix build, pooled over distances): one token
    explode per batch, three vectorized shift-compares gated on the
    document-parent index (pairs never cross a doc boundary), partial
    counts, one vocabulary-bounded groupby, per-block top-30 prune —
    the strict (n desc, wa, wb) order makes the prune provably
    lossless."""
    from ray.data.aggregate import Sum

    docs = _read(sf_dir, "documents", ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        parts = pc.split_pattern(batch["text"], pattern=" ")
        flat = pc.list_flatten(parts).combine_chunks()
        parent = pc.list_parent_indices(parts).to_numpy(
            zero_copy_only=False)
        toks = flat.to_numpy(zero_copy_only=False)
        frames = []
        for d in (1, 2, 3):
            if len(toks) <= d:
                continue
            same = parent[:-d] == parent[d:]
            frames.append(pd.DataFrame({"wa": toks[:-d][same],
                                        "wb": toks[d:][same]}))
        if not frames:
            return pa.table({"wa": pa.array([], type=pa.string()),
                             "wb": pa.array([], type=pa.string()),
                             "pn": pa.array([], type=pa.int64())})
        g = pd.concat(frames).groupby(["wa", "wb"], sort=False) \
            .size().reset_index(name="pn")
        return pa.Table.from_pandas(g, preserve_index=False)

    counts = docs.map_batches(partial, batch_format="pyarrow") \
        .groupby(["wa", "wb"]).aggregate(Sum("pn", alias_name="n"))

    def prune(t: pa.Table) -> pa.Table:
        t = pa.table({"wa": t["wa"], "wb": t["wb"],
                      "n": t["n"].cast(pa.int64())})
        return t.sort_by([("n", "descending"), ("wa", "ascending"),
                          ("wb", "ascending")]).slice(0, 30)

    cand = relational.ds_to_table(
        counts.map_batches(prune, batch_format="pyarrow"))
    return cand.sort_by([("n", "descending"), ("wa", "ascending"),
                         ("wb", "ascending")]).slice(0, 30).to_pandas()


SQL_WINDOW_COOCCUR = """
WITH t AS (SELECT string_split(text, ' ') AS w FROM documents),
pos AS (SELECT w, unnest(generate_series(1, len(w))) AS i FROM t),
pairs AS (
  SELECT w[CAST(i AS INT)] AS wa, w[CAST(i AS INT) + 1] AS wb
  FROM pos WHERE i + 1 <= len(w)
  UNION ALL
  SELECT w[CAST(i AS INT)], w[CAST(i AS INT) + 2]
  FROM pos WHERE i + 2 <= len(w)
  UNION ALL
  SELECT w[CAST(i AS INT)], w[CAST(i AS INT) + 3]
  FROM pos WHERE i + 3 <= len(w))
SELECT wa, wb, CAST(COUNT(*) AS BIGINT) AS n
FROM pairs GROUP BY 1, 2 ORDER BY n DESC, wa, wb LIMIT 30
"""


#: count-min sketch geometry + row-hash constants (splitmix64 odd
#: multipliers, public constants) — shared verbatim with the SQL twin
_CMS_W_BITS = 10                        # 1024 buckets per row
_CMS_A = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def _cms_buckets(h: np.ndarray, a: int) -> np.ndarray:
    """Multiply-shift bucket: top _CMS_W_BITS bits of h·a mod 2⁶⁴."""
    with np.errstate(over="ignore"):
        return ((h * np.uint64(a)) >> np.uint64(64 - _CMS_W_BITS)) \
            .astype(np.int64)


def q_countmin_word_freq(sf_dir: str):
    """Count-min sketch word frequencies — the fixed-memory heavy-
    hitter counter every streaming ingest keeps — with an EXACT SQL
    twin: the sketch is deterministic (2 multiply-shift rows × 1024
    counters over the shared SQL-mirrorable word hash), so DuckDB can
    recompute every counter cell and the per-word estimate
    min(row₀[b₀(w)], row₁[b₁(w)]) bit-for-bit.  Distributed shape:
    one vocab groupby (the exact counts), then a 2048-bounded
    (row, bucket) fold — counters are sums, so partials merge at any
    partitioning.  Output: the exact top-20 words with their exact
    count AND the sketch estimate (≥ exact by construction — the
    overestimate-only contract is also pytest-pinned)."""
    from ray.data.aggregate import Sum

    docs = _read(sf_dir, "documents", ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        parts = pc.split_pattern(batch["text"], pattern=" ")
        words = pc.list_flatten(parts)
        words = words.filter(pc.not_equal(words, ""))
        g = pa.table({"w": words}).group_by("w") \
            .aggregate([("w", "count")])
        return pa.table({"w": g["w"],
                         "pcnt": g["w_count"].cast(pa.int64())})

    counts = docs.map_batches(partial, batch_format="pyarrow") \
        .groupby("w").aggregate(Sum("pcnt", alias_name="n")) \
        .materialize()                 # vocab-bounded, consumed twice

    def bucketize(t: pa.Table) -> pa.Table:
        ws = t["w"].to_pylist()
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = dd.word_hashes_u64(ws)
        rows, buckets, cnts = [], [], []
        for j, a in enumerate(_CMS_A):
            rows.append(np.full(len(ws), j, dtype=np.int64))
            buckets.append(_cms_buckets(h, a))
            cnts.append(n)
        g = pd.DataFrame({"row": np.concatenate(rows),
                          "bucket": np.concatenate(buckets),
                          "pc_": np.concatenate(cnts)}) \
            .groupby(["row", "bucket"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    ctr = relational.ds_to_table(
        counts.map_batches(bucketize, batch_format="pyarrow")
        .groupby(["row", "bucket"]).aggregate(Sum("pc_",
                                                  alias_name="c"))
    ).to_pandas()
    cmap = {(int(r.row), int(r.bucket)): int(r.c)
            for r in ctr.itertuples()}

    def prune(t: pa.Table) -> pa.Table:
        t = pa.table({"w": t["w"], "n": t["n"].cast(pa.int64())})
        return t.sort_by([("n", "descending"), ("w", "ascending")]) \
            .slice(0, 20)

    top = relational.ds_to_table(
        counts.map_batches(prune, batch_format="pyarrow")) \
        .sort_by([("n", "descending"), ("w", "ascending")]) \
        .slice(0, 20).to_pandas()
    h = dd.word_hashes_u64(top["w"].tolist())
    bks = [_cms_buckets(h, a) for a in _CMS_A]
    est = [min(cmap[(j, int(bks[j][i]))]
               for j in range(len(_CMS_A)))
           for i in range(len(top))]
    out = pd.DataFrame({"word": top["w"], "n_exact": top["n"],
                        "cms_est": est})
    return out.astype({"n_exact": np.int64, "cms_est": np.int64})


def _sql_countmin() -> str:
    M = 1 << 64
    mix = dd.SIMHASH_MIX
    mixhi = (mix << 32) % M
    shift = 1 << (64 - _CMS_W_BITS)
    bcols = []
    for j, a in enumerate(_CMS_A):
        ahi = (a << 32) % M
        bcols.append(f"((h % 4294967296) * {a} % {M}"
                     f" + (h // 4294967296) * {ahi} % {M}) % {M}"
                     f" // {shift} AS b{j}")
    return rf"""
WITH words AS (SELECT unnest(string_split(text, ' ')) AS w
               FROM documents),
wc AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS n FROM words
       WHERE w <> '' GROUP BY w),
folded AS (
  SELECT w, n,
    list_reduce(
      [CAST(CAST('0x'||substr(hex(encode(w)),2*i-1,2) AS INT) AS HUGEINT)
       for i in generate_series(1, octet_length(encode(w)))],
      (a,b) -> (a*{dd.SIMHASH_PRIME} + b) % {M}) AS f
  FROM wc),
wh AS (SELECT w, n,
              ((f % 4294967296) * {mix} % {M}
               + (f // 4294967296) * {mixhi} % {M}) % {M} AS h
       FROM folded),
bk AS (SELECT w, n, {bcols[0]}, {bcols[1]} FROM wh),
c0 AS (SELECT b0 AS b, SUM(n) AS c FROM bk GROUP BY 1),
c1 AS (SELECT b1 AS b, SUM(n) AS c FROM bk GROUP BY 1),
top AS (SELECT w, n, b0, b1 FROM bk ORDER BY n DESC, w ASC LIMIT 20)
SELECT top.w AS word, top.n AS n_exact,
       CAST(LEAST(c0.c, c1.c) AS BIGINT) AS cms_est
FROM top JOIN c0 ON c0.b = top.b0 JOIN c1 ON c1.b = top.b1
ORDER BY n_exact DESC, word ASC
"""


def q_golden_record_entities(sf_dir: str):
    """Golden-record construction (MDM survivorship): after fuzzy
    entity resolution, each cluster publishes ONE canonical record —
    longest name wins (corruption deletes characters), ties break
    lexicographically; unmatched records survive as their own
    singleton golden record.  Cluster labels ride a bucketed LEFT
    join back onto the full clean ∪ dirty catalog (no broadcast of
    the entity set), survivorship picks per label inside a bucketed
    group pass.  Reuses the fuzzy-pairs + connected-components
    kernels; the twin composes the identical recursive closure."""
    clean, dirty = _fuzzy_sides(sf_dir)
    lbl = _fuzzy_cluster_labels(sf_dir)
    labels = rd.from_pandas(pd.DataFrame({
        "id": lbl["node"].astype(np.int64),
        "label": lbl["label"].astype(np.int64)}))
    ents = clean.union(dirty)
    j = relational.bucketed_hash_join(ents, labels, on="id",
                                      how="left")

    from ...stages.relational import stable_bucket

    def finish(t: pa.Table) -> pa.Table:
        ids = t["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lab = t["label"].to_numpy(zero_copy_only=False)
        lab = np.where(pd.isna(lab), ids, lab).astype(np.int64)
        out = pa.table({"label": pa.array(lab), "id": t["id"],
                        "nm": t["nm"]})
        return out.append_column(
            "_bucket", pa.array(stable_bucket(out["label"], 64)))

    def survive(g: pd.DataFrame) -> pd.DataFrame:
        # label-bucket group: every cluster lives whole in one bucket,
        # so ONE vectorized sort + first-per-label is the full
        # survivorship pick (no per-cluster python — a label-keyed
        # map_groups here cost 26 s at sf0.1 for ~33 k tiny groups)
        g = g.assign(ln=g["nm"].str.len()) \
            .sort_values(["label", "ln", "nm"],
                         ascending=[True, False, True])
        agg = g.groupby("label", sort=False) \
            .agg(n_records=("nm", "size"),
                 canonical_nm=("nm", "first")).reset_index()
        return agg

    # pin the labeled catalog (entity-dimension bounded): the groupby's
    # schema probe otherwise re-executes the whole two-sort join DAG
    # with limit 1 — measured 6.5 s of pure re-derivation at sf0.1
    labeled = j.map_batches(finish,
                            batch_format="pyarrow").materialize()
    out = relational.ds_to_table(
        labeled.groupby("_bucket").map_groups(survive,
                                              batch_format="pandas")
    ).to_pandas().sort_values("label").reset_index(drop=True)
    return out.astype({"label": np.int64, "n_records": np.int64})


SQL_GOLDEN_RECORD = SQL_FUZZY_BASE + """,
sym AS (SELECT a, b FROM pairs UNION ALL SELECT b AS a, a AS b
        FROM pairs),
reach(node, anc) AS (
  SELECT a, b FROM sym
  UNION
  SELECT r.node, s.b FROM reach r JOIN sym s ON s.a = r.anc),
lbl AS (SELECT node, MIN(l) AS label FROM (
          SELECT node, node AS l
          FROM (SELECT a AS node FROM pairs
                UNION SELECT b AS node FROM pairs)
          UNION ALL SELECT node, anc AS l FROM reach)
        GROUP BY node),
ents AS (SELECT id, nm FROM clean UNION ALL SELECT id, nm FROM dirty),
tagged AS (SELECT e.id, e.nm, COALESCE(l.label, e.id) AS label
           FROM ents e LEFT JOIN lbl l ON l.node = e.id),
ranked AS (SELECT label, nm,
                  ROW_NUMBER() OVER (PARTITION BY label
                                     ORDER BY length(nm) DESC, nm ASC)
                    AS rk,
                  COUNT(*) OVER (PARTITION BY label) AS n
           FROM tagged)
SELECT label, CAST(n AS BIGINT) AS n_records, nm AS canonical_nm
FROM ranked WHERE rk = 1 ORDER BY label
"""


def q_source_cosine_similarity(sf_dir: str):
    """Pairwise cosine similarity between sources' unigram count
    vectors — the corpus-mixture diagnostic (which crawls duplicate
    each other?).  All cross terms stay EXACT INTEGERS: one
    (source, word) count reduce, then a WORD-bucket shuffle where each
    bucket's local sources×words pivot contributes an integer partial
    Gram matrix; the 190 pair dots and the per-source norms fold
    exactly, and the cosine is one mirrored float expression per
    pair."""
    from ray.data.aggregate import Sum

    from ...stages.relational import stable_bucket

    docs = _read(sf_dir, "documents", ["source", "text"])

    def wc(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t["text"], pattern=" ")
        n = pc.list_value_length(parts).to_numpy(
            zero_copy_only=False)
        src = np.repeat(t["source"].to_numpy(zero_copy_only=False),
                        n)
        g = pd.DataFrame({"source": src,
                          "w": pc.list_flatten(parts).to_numpy(
                              zero_copy_only=False), "n": 1}) \
            .groupby(["source", "w"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    counts = docs.map_batches(wc, batch_format="pyarrow") \
        .groupby(["source", "w"]).aggregate(Sum("n", alias_name="n"))

    def tag(t: pa.Table) -> pa.Table:
        b = stable_bucket(t["w"], 64)
        return t.append_column("_bucket", pa.array(b))

    def gram(g: pd.DataFrame) -> pd.DataFrame:
        piv = g.pivot_table(index="w", columns="source", values="n",
                            aggfunc="sum", fill_value=0)
        m = piv.to_numpy(dtype=np.int64)
        gram = m.T @ m                      # sources × sources ints
        srcs = list(piv.columns)
        rows = []
        for i, a in enumerate(srcs):
            for j, b in enumerate(srcs):
                if a <= b:
                    rows.append({"s1": a, "s2": b,
                                 "dot": int(gram[i, j])})
        return pd.DataFrame(rows)

    parts = relational.ds_to_table(
        counts.map_batches(tag, batch_format="pyarrow")
        .groupby("_bucket").map_groups(gram, batch_format="pandas")
        .groupby(["s1", "s2"]).aggregate(Sum("dot",
                                             alias_name="dot"))
    ).to_pandas()
    norms = {r.s1: int(r.dot) for r in parts.itertuples()
             if r.s1 == r.s2}
    # drop zero dots: the twin's inner join on shared words only
    # emits pairs with ≥1 common word, so a bucket-co-residency row
    # whose partials folded to 0 must not survive here either
    out = parts[(parts["s1"] < parts["s2"])
                & (parts["dot"] > 0)].copy() \
        .sort_values(["s1", "s2"]).reset_index(drop=True)
    out["cosine"] = [
        np.round(float(d) / (np.sqrt(float(norms[a]))
                             * np.sqrt(float(norms[b]))), 6)
        for a, b, d in zip(out["s1"], out["s2"], out["dot"])]
    return out.astype({"dot": np.int64})


SQL_SOURCE_COSINE = """
WITH wc AS (SELECT source, w, CAST(COUNT(*) AS HUGEINT) AS n
            FROM (SELECT source,
                         unnest(string_split(text, ' ')) AS w
                  FROM documents)
            GROUP BY 1, 2),
dots AS (SELECT a.source AS s1, b.source AS s2,
                SUM(a.n * b.n) AS dot
         FROM wc a JOIN wc b ON a.w = b.w AND a.source < b.source
         GROUP BY 1, 2),
norms AS (SELECT source, SUM(n * n) AS ss FROM wc GROUP BY 1)
SELECT d.s1, d.s2, CAST(d.dot AS BIGINT) AS dot,
       ROUND(CAST(d.dot AS DOUBLE)
             / (sqrt(CAST(na.ss AS DOUBLE))
                * sqrt(CAST(nb.ss AS DOUBLE))), 6) AS cosine
FROM dots d JOIN norms na ON na.source = d.s1
            JOIN norms nb ON nb.source = d.s2
ORDER BY 1, 2
"""


def q_dl_nearest_name(sf_dir: str):
    """Approximate dictionary search under FULL (unrestricted)
    Damerau–Levenshtein: 20 deterministically-corrupted probe names
    (adjacent-digit transposition / deletion / substitution by probe
    index) each find their nearest customer name among custkey < 500
    — the fuzzy-lookup primitive where transpositions are the
    dominant typo class.  The batched Lowrance–Wagner kernel
    (``fuzzy.batch_damerau_levenshtein``, fuzz-verified char-exact
    against DuckDB's ``damerau_levenshtein``) scores rows × 20 pairs
    per batch; per-batch per-probe (d, name) minima are a monotone
    combiner, so the finish merges blocks × 20 candidates.  Ties
    break (d, name) ascending, mirroring the QUALIFY twin."""
    from ...stages.fuzzy import batch_damerau_levenshtein

    base = _read_table(sf_dir, "customer",
                       ["c_custkey", "c_name"]).to_pandas()
    bmap = dict(zip(base["c_custkey"].astype(int), base["c_name"]))
    probes = []
    for p in range(20):
        s = bmap[7 * p + 3]
        m = p % 3
        if m == 0:
            s = s[:10] + s[11] + s[10] + s[12:]
        elif m == 1:
            s = s[:11] + s[12:]
        else:
            s = s[:12] + "X" + s[13:]
        probes.append(s)

    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])

    def partial(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        keep = k < 500
        names = t["c_name"].to_pandas()[keep].tolist()
        if not names:
            return pa.table({"p": pa.array([], type=pa.int64()),
                             "d": pa.array([], type=pa.int64()),
                             "name": pa.array([], type=pa.string())})
        a = probes * len(names)
        b = [nm for nm in names for _ in range(20)]
        dist = batch_damerau_levenshtein(a, b).astype(np.int64) \
            .reshape(len(names), 20)
        out = []
        for p in range(20):
            dcol = dist[:, p]
            best = int(dcol.min())
            cand = min(nm for nm, dd in zip(names, dcol) if dd == best)
            out.append({"p": p, "d": best, "name": cand})
        return pa.Table.from_pandas(pd.DataFrame(out),
                                    preserve_index=False)

    cand = relational.ds_to_table(
        cust.map_batches(partial, batch_format="pyarrow")).to_pandas()
    best = cand.sort_values(["p", "d", "name"]) \
        .groupby("p", sort=True).head(1).reset_index(drop=True)
    best["probe"] = [probes[int(p)] for p in best["p"]]
    return best[["p", "probe", "name", "d"]].rename(
        columns={"name": "best_name", "d": "best_d"}) \
        .astype({"p": np.int64, "best_d": np.int64})


SQL_DL_NEAREST = """
WITH pr AS (
  SELECT r.range AS p,
         CASE CAST(r.range % 3 AS INT)
           WHEN 0 THEN substr(c_name, 1, 10) || substr(c_name, 12, 1)
                       || substr(c_name, 11, 1) || substr(c_name, 13)
           WHEN 1 THEN substr(c_name, 1, 11) || substr(c_name, 13)
           ELSE substr(c_name, 1, 12) || 'X' || substr(c_name, 14)
         END AS probe
  FROM range(20) r JOIN customer ON c_custkey = 7 * r.range + 3),
d AS (SELECT pr.p, pr.probe, c.c_name AS best_name,
             CAST(damerau_levenshtein(pr.probe, c.c_name) AS BIGINT)
               AS best_d
      FROM pr, customer c WHERE c.c_custkey < 500)
SELECT p, probe, best_name, best_d FROM d
QUALIFY ROW_NUMBER() OVER (PARTITION BY p
                           ORDER BY best_d, best_name) = 1
ORDER BY p
"""


def q_split_leakage_pairs(sf_dir: str):
    """Train/val/test contamination audit: how many EXACT near-dup
    pairs (Jaccard ≥ 0.8, the recall-complete AllPairs kernel) cross
    the deterministic hash split — the leakage number every
    training-data release must report, because a test doc whose
    near-duplicate sits in train silently inflates eval.  The pair
    pipeline and the split hash are the registry's own production
    kernels composed; output is the bounded (split_lo, split_hi, n)
    matrix including the diagonal (within-split dups), so the
    cross-split leakage AND the conservation total are both
    auditable."""
    from ray.data.aggregate import Sum
    docs = _read(sf_dir, "documents", ["doc_id", "text"]).repartition(32)
    pairs = dd.allpairs_jaccard(docs, key_col="doc_id", text_col="text",
                                jaccard_threshold=0.8, shingle_k=5)
    splits = relational.hash_split(
        _read(sf_dir, "documents", ["doc_id"]), key_col="doc_id",
        splits={"train": 800_000, "val": 100_000, "test": 100_000}) \
        .map_batches(lambda t: t.select(["doc_id", "split"]),
                     batch_format="pyarrow").materialize()
    # the split table is corpus-scaled: attach via TWO bucketed joins
    # (never a corpus-sized broadcast), then one bounded 3×3 reduce
    ja = relational.bucketed_hash_join(
        pairs, splits.map_batches(
            lambda t: t.rename_columns(["a", "split_a"]),
            batch_format="pyarrow"), on="a")
    jb = relational.bucketed_hash_join(
        ja, splits.map_batches(
            lambda t: t.rename_columns(["b", "split_b"]),
            batch_format="pyarrow"), on="b")

    def tag(t: pa.Table) -> pa.Table:
        a = t["split_a"].to_pylist()
        b = t["split_b"].to_pylist()
        g = pd.DataFrame({
            "split_lo": [min(x, y) for x, y in zip(a, b)],
            "split_hi": [max(x, y) for x, y in zip(a, b)],
            "pn": 1}) \
            .groupby(["split_lo", "split_hi"], sort=False).sum() \
            .reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    out = relational.ds_to_table(
        jb.map_batches(tag, batch_format="pyarrow")
        .groupby(["split_lo", "split_hi"]).aggregate(
            Sum("pn", alias_name="n"))).to_pandas() \
        .sort_values(["split_lo", "split_hi"]).reset_index(drop=True)
    return out.astype({"n": np.int64})


SQL_SPLIT_LEAKAGE = """
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
pairs AS (SELECT i.a, i.b FROM inter i
          JOIN sizes sa ON sa.doc_id = i.a
          JOIN sizes sb ON sb.doc_id = i.b
          WHERE CAST(i.ni AS DOUBLE) / (sa.n + sb.n - i.ni) >= 0.8),
sp AS (SELECT doc_id,
              CASE WHEN h < 800000 THEN 'train'
                   WHEN h < 900000 THEN 'val'
                   ELSE 'test' END AS split
       FROM (SELECT doc_id,
                    ((CAST(doc_id + 1 AS HUGEINT) * 11400714819323198485)
                     % 18446744073709551616) % 1000000 AS h
             FROM documents))
SELECT LEAST(xa.split, xb.split) AS split_lo,
       GREATEST(xa.split, xb.split) AS split_hi,
       CAST(COUNT(*) AS BIGINT) AS n
FROM pairs p
JOIN sp xa ON xa.doc_id = p.a
JOIN sp xb ON xb.doc_id = p.b
GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_yules_k_sources(sf_dir: str):
    """Yule's characteristic K per source — the classic lexical-
    richness / repetitiveness statistic (K = 10⁴·(Σ_w c_w² − N)/N²,
    the scaled second moment of the word-frequency distribution) that
    complements Good–Turing's unseen mass and the Zipf slope: template
    farms and boilerplate mills show HIGH K (a few words dominate),
    diverse prose sits low.  One (source, word) exact-count reduce —
    the vocabulary shuffles once — then per-source Σc and Σc² partials
    ride the (hi, lo) 128-bit split; K is the single mirrored float
    per source."""
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

    def mom_partial(t: pa.Table) -> pa.Table:
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        c2 = c * c
        g = pd.DataFrame({"source": t["source"].to_pandas(),
                          "pv": 1, "ps1": c,
                          "ph2": c2 >> 32, "pl2": c2 & 0xFFFFFFFF}) \
            .groupby("source", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        docs.map_batches(tok_partial, batch_format="pyarrow")
        .groupby(["source", "w"]).aggregate(Sum("c", alias_name="c"))
        .map_batches(mom_partial, batch_format="pyarrow")
        .groupby("source").aggregate(
            Sum("pv", alias_name="vocab"), Sum("ps1", alias_name="s1"),
            Sum("ph2", alias_name="h2"), Sum("pl2", alias_name="l2"))
    ).to_pandas()
    rows = []
    for r in agg.itertuples(index=False):
        s1 = int(r.s1)
        s2 = int(r.h2) * (1 << 32) + int(r.l2)
        k = round(10000.0 * (s2 - s1) / (float(s1) * s1), 6)
        rows.append({"source": r.source, "n_tokens": s1,
                     "vocab": int(r.vocab), "yules_k": k})
    return pd.DataFrame(rows).sort_values("source") \
        .reset_index(drop=True) \
        .astype({"n_tokens": np.int64, "vocab": np.int64})


SQL_YULES_K = """
WITH tok AS (SELECT source, unnest(string_split(text, ' ')) AS w
             FROM documents),
wc AS (SELECT source, w, CAST(COUNT(*) AS BIGINT) AS c
       FROM tok GROUP BY 1, 2),
s AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS vocab,
             SUM(CAST(c AS HUGEINT)) AS s1,
             SUM(CAST(c AS HUGEINT) * c) AS s2
      FROM wc GROUP BY 1)
SELECT source, CAST(s1 AS BIGINT) AS n_tokens, vocab,
       ROUND(10000.0 * (s2 - s1) / (CAST(s1 AS DOUBLE) * s1), 6)
         AS yules_k
FROM s ORDER BY source
"""


_LSH_SCHEMES = ((64, 1), (32, 2), (16, 4), (8, 8),
                (4, 16), (2, 32), (1, 64))


def q_lsh_param_planner(sf_dir: str):
    """LSH banding-parameter planner: for every (bands b, rows r)
    factorization of the 64-permutation MinHash signature, the
    REALIZED precision/recall of the candidate rule "some band's r
    positions all agree" against exact 5-gram Jaccard ≥ 0.5 on the
    deterministic (i, i+250) pair sample — the measured S-curve a
    dedup pipeline should pick its banding from instead of trusting
    1−(1−t^r)^b on faith.  Signatures come from the production
    MinHasher stage (the fidelity op's no-drift contract, shared SQL
    prefix); candidacy, dup labels and all counts are exact ints, the
    two rates are mirrored divisions with NULL on empty
    denominators."""
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
    stats = {s: [0, 0] for s in _LSH_SCHEMES}   # ncand, tp
    ndup = 0
    for a, b, j in zip(ex["a"], ex["b"], ex["jaccard"]):
        eq = sig[int(a)] == sig[int(b)]
        dup = float(j) >= 0.5
        ndup += int(dup)
        for (nb, r) in _LSH_SCHEMES:
            cand = bool(eq.reshape(nb, r).all(axis=1).any())
            stats[(nb, r)][0] += int(cand)
            stats[(nb, r)][1] += int(cand and dup)
    rows = []
    for (nb, r) in _LSH_SCHEMES:
        nc, tp = stats[(nb, r)]
        rows.append({
            "bands": nb, "rows_per_band": r,
            "n_candidates": nc, "n_dups": ndup, "tp": tp,
            "precision": None if nc == 0 else float(np.round(
                float(tp) / float(nc), 6)),
            "recall": None if ndup == 0 else float(np.round(
                float(tp) / float(ndup), 6))})
    return pd.DataFrame(rows).astype({
        "bands": np.int64, "rows_per_band": np.int64,
        "n_candidates": np.int64, "n_dups": np.int64,
        "tp": np.int64})


def _sql_lsh_planner() -> str:
    schemes = ", ".join(f"({nb}, {r})" for nb, r in _LSH_SCHEMES)
    return f"""
WITH {_sql_minhash_sig_prefix()},
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
          GROUP BY p.a, p.b),
jx AS (SELECT p.a, p.b,
              CASE WHEN CAST(COALESCE(i.ni, 0) AS DOUBLE)
                        / (sa.n + sb.n - COALESCE(i.ni, 0)) >= 0.5
                   THEN 1 ELSE 0 END AS dup
       FROM pairs p
       JOIN sizes sa ON sa.doc_id = p.a
       JOIN sizes sb ON sb.doc_id = p.b
       LEFT JOIN inter i ON i.a = p.a AND i.b = p.b),
eq AS (SELECT p.a, p.b, x.pid,
              CASE WHEN x.mh = y.mh THEN 1 ELSE 0 END AS e
       FROM pairs p JOIN sig x ON x.doc_id = p.a
       JOIN sig y ON y.doc_id = p.b AND y.pid = x.pid),
sch(nb, r) AS (VALUES {schemes}),
bm AS (SELECT eq.a, eq.b, sch.nb, sch.r, eq.pid // sch.r AS band,
              MIN(eq.e) AS allm
       FROM eq, sch GROUP BY 1, 2, 3, 4, 5),
cand AS (SELECT a, b, nb, r, MAX(allm) AS c
         FROM bm GROUP BY 1, 2, 3, 4),
agg AS (SELECT cand.nb, cand.r,
               CAST(SUM(cand.c) AS BIGINT) AS nc,
               CAST(SUM(cand.c * jx.dup) AS BIGINT) AS tp
        FROM cand JOIN jx ON jx.a = cand.a AND jx.b = cand.b
        GROUP BY 1, 2),
nd AS (SELECT CAST(SUM(dup) AS BIGINT) AS ndup FROM jx)
SELECT agg.nb AS bands, agg.r AS rows_per_band,
       agg.nc AS n_candidates, nd.ndup AS n_dups, agg.tp,
       CASE WHEN agg.nc = 0 THEN NULL
            ELSE ROUND(CAST(agg.tp AS DOUBLE)
                       / CAST(agg.nc AS DOUBLE), 6) END AS precision,
       CASE WHEN nd.ndup = 0 THEN NULL
            ELSE ROUND(CAST(agg.tp AS DOUBLE)
                       / CAST(nd.ndup AS DOUBLE), 6) END AS recall
FROM agg, nd ORDER BY bands DESC
"""
