"""Text-analysis operators: language-ID, quality scoring, token counting,
document fingerprinting — vectorized / stateful task stages over the
``documents`` (or extracted pages) corpus.
"""
from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa

from . import util
from .relational import bucket_shuffle

# tiny n-gram/stopword profiles for the heuristic language id
_LANG_PROFILES = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "that", "for"},
    "fr": {"le", "la", "et", "les", "des", "un", "une", "est", "dans", "pour"},
    "de": {"der", "die", "und", "das", "ist", "ein", "nicht", "mit", "den", "von"},
    "es": {"el", "la", "de", "que", "y", "en", "un", "es", "los", "por"},
    "ar": {"في", "من", "على", "أن", "إلى", "عن", "هذا", "مع", "كان", "لا"},
    "sw": {"ya", "na", "wa", "kwa", "ni", "za", "katika", "hii", "la", "kama"},
}


class LangId:
    """Heuristic language id: stopword-profile vote; 'und' when no vote."""

    def __init__(self, text_col="text"):
        self.text_col = text_col
        # one alternation regex per language: the vote becomes 6 vectorized
        # str.count passes + an argmax, not a per-row python loop
        self.lang_res = {
            lang: re.compile(r"\b(?:" + "|".join(
                sorted(prof, key=len, reverse=True)) + r")\b")
            for lang, prof in _LANG_PROFILES.items()}

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        low = batch[self.text_col].str.lower()
        langs = list(self.lang_res)
        counts = np.stack([low.str.count(self.lang_res[lg]).to_numpy()
                           for lg in langs], axis=1)
        best = counts.argmax(axis=1)
        pred = np.array(langs, dtype=object)[best]
        pred[counts.max(axis=1) == 0] = "und"
        batch["lang_pred"] = pred
        return batch


class QualityScorer:
    """Quality heuristics per doc: char len, word count, mean word length,
    punctuation ratio, stopword ratio, digit ratio, a composite score."""

    def __init__(self, text_col="text"):
        self.text_col = text_col
        self.word = re.compile(r"\w+")
        stop = frozenset().union(*_LANG_PROFILES.values())
        # one alternation regex: stopword hits counted in a single
        # vectorized str.count pass instead of a per-word python loop
        self.stop_re = re.compile(
            r"\b(?:" + "|".join(sorted(stop, key=len, reverse=True)) + r")\b")

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        s = batch[self.text_col]
        n = s.str.len().astype("int64")
        batch["q_chars"] = n
        words = s.str.count(self.word).astype("int64")
        batch["q_words"] = words
        wchars = s.str.count(r"\w")
        batch["q_mean_word_len"] = (wchars / words.clip(lower=1)) \
            .where(words > 0, 0.0)
        punct = s.str.count(r"[^\w\s]") + s.str.count("_")
        batch["q_punct_ratio"] = punct / n.clip(lower=1)
        stops = s.str.lower().str.count(self.stop_re)
        batch["q_stop_ratio"] = stops / words.clip(lower=1)
        batch["q_digit_ratio"] = s.str.count(r"\d") / n.clip(lower=1)
        batch["q_score"] = (
            (batch["q_words"].clip(0, 500) / 500.0) * 0.4
            + batch["q_stop_ratio"].clip(0, 0.5) * 0.8
            + (1 - batch["q_punct_ratio"].clip(0, 0.5)) * 0.2)
        return batch


def token_count_batch(batch: pa.Table, text_col="text") -> pa.Table:
    """Whitespace token count + a BPE-ish regex token count (\\w+ runs and
    single punctuation marks), fully arrow-native: two C++
    ``count_substring_regex`` passes, no per-text Python loop.  RE2
    semantics (ASCII \\w/\\s) — identical to the DuckDB oracle twin's
    ``regexp_extract_all``, which is also RE2."""
    import pyarrow.compute as pc
    arr = batch[text_col]
    ws = pc.count_substring_regex(arr, pattern=r"\S+").cast(pa.int64())
    bpe = pc.count_substring_regex(arr, pattern=r"\w+|[^\w\s]").cast(pa.int64())
    out = batch.append_column("tokens_ws", ws)
    return out.append_column("tokens_re", bpe)


def normalize_text_batch(batch: pa.Table, text_col="text",
                         out_col="text_norm") -> pa.Table:
    """CCNet-style text normalization, all arrow C++ kernels: unicode NFC
    → lowercase → collapse whitespace runs to one space → trim spaces.
    Emits the normalized column plus ``changed`` (1 when normalization
    altered the text — the usual corpus-hygiene metric).

    RE2 ``\\s`` is ASCII-only, so exotic unicode spaces survive — the
    DuckDB twin (nfc_normalize/lower/regexp_replace) shares exactly that
    behavior, which is what makes the op oracle-checkable.

    NFC runs through ``unicodedata`` on the NON-ASCII rows only (pure
    C per string; ASCII batches skip the pass entirely): pyarrow 16.1's
    ``utf8_normalize(form="NFC")`` actually emits the DECOMPOSED form
    (measured: U+00E9 → U+0065 U+0301 under every form), so the arrow
    kernel cannot match DuckDB's nfc_normalize."""
    import unicodedata

    import pyarrow.compute as pc
    arr = batch[text_col]
    nonascii = pc.match_substring_regex(arr, pattern=r"[^\x00-\x7F]")
    if pc.any(nonascii).as_py():
        m = nonascii.to_numpy(zero_copy_only=False)
        lst = arr.to_pylist()
        n = pa.array([unicodedata.normalize("NFC", t) if f else t
                      for t, f in zip(lst, m)], type=pa.string())
    else:
        n = arr
    n = pc.utf8_lower(n)
    n = pc.replace_substring_regex(n, pattern=r"\s+", replacement=" ")
    n = pc.replace_substring_regex(n, pattern=r"^ +| +$", replacement="")
    changed = pc.cast(pc.not_equal(arr, n), pa.int64())
    return batch.append_column(out_col, n).append_column("changed", changed)


def top_k_words(ds, text_col="text", k: int = 20):
    """Corpus heavy hitters: global top-k words by count.  Per-batch
    partial counts (arrow group_by) → one groupby-sum per distinct word →
    per-block top-k prune → driver-side merge of the k×num_blocks
    candidates (no second all-to-all: after the groupby each word lives in
    exactly one block, so the global top-k is a subset of the per-block
    top-ks).  Ties at the k boundary break by word ascending (matches
    ``ORDER BY n DESC, word`` exactly)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        parts = pc.split_pattern(batch[text_col], pattern=" ")
        g = pa.table({"word": pc.list_flatten(parts)}) \
            .group_by("word").aggregate([("word", "count")])
        return pa.table({"word": g["word"],
                         "pcnt": g["word_count"].cast(pa.int64())})

    counts = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("word").aggregate(Sum("pcnt", alias_name="n"))

    def prune(t: pa.Table) -> pa.Table:
        t = pa.table({"word": t["word"], "n": t["n"].cast(pa.int64())})
        return t.sort_by([("n", "descending"), ("word", "ascending")]) \
            .slice(0, k)

    from .relational import ds_to_table
    cand = ds_to_table(counts.map_batches(prune, batch_format="pyarrow"))
    return cand.sort_by([("n", "descending"), ("word", "ascending")]) \
        .slice(0, k)


def rare_word_stats(ds, key_col: str = "doc_id", text_col: str = "text",
                    max_df: int = 2):
    """Rare-word density per doc: the count and fraction of word TYPES
    whose corpus-wide document frequency is ≤ ``max_df`` (hapax-heavy
    docs are a classic spam/garbage signal; the inverse of stopword
    density).

    Scale shape mirrors paragraph_dedup_stats:
      1. per-doc DISTINCT (key, word-hash) pairs explode arrow-native,
         each carrying the doc's type count — word strings never shuffle;
      2. per-batch partial df counts → one groupby-sum per distinct word;
      3. COMMON words (df > max_df — the Zipf head) flag the pairs via a
         size-guarded ray.put broadcast + pc.is_in, falling back to a
         bucketed left join;  n_rare = n_types − n_common needs no
         rare-side set at all;
      4. one per-doc groupby.
    Fraction floor-truncated at 4 decimals (numpy/DuckDB-identical)."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Max, Sum

    def explode(batch: pa.Table) -> pa.Table:
        parts = pc.split_pattern(batch[text_col], pattern=" ")
        idx = pc.list_parent_indices(parts).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        flat = np.asarray(pc.list_flatten(parts))
        # process-stable C-vectorized siphash (same primitive as
        # stable_bucket) — no per-word python hashing in this hot path
        h = pd.util.hash_array(flat.astype(object)).view(np.int64)
        # distinct (doc, word) within the batch == global distinct
        # (each doc is one row, fully contained in its batch)
        order = np.lexsort((h, idx))
        si, sh = idx[order], h[order]
        keep = np.r_[True, (si[1:] != si[:-1]) | (sh[1:] != sh[:-1])] \
            if len(si) else np.array([], bool)
        di, dh = si[keep], sh[keep]
        n_types = np.bincount(di, minlength=batch.num_rows).astype(np.int64)
        return pa.table({key_col: batch[key_col].take(pa.array(di)),
                         "_h": pa.array(dh),
                         "n_types": pa.array(n_types[di])})

    pairs = ds.map_batches(explode, batch_format="pyarrow")

    def partial_df(batch: pa.Table) -> pa.Table:
        g = batch.group_by("_h").aggregate([("_h", "count")])
        return pa.table({"_h": g["_h"],
                         "pdf": g["_h_count"].cast(pa.int64())})

    dfreq = pairs.map_batches(partial_df, batch_format="pyarrow") \
        .groupby("_h").aggregate(Sum("pdf", alias_name="df"))
    common = dfreq.filter(expr=f"df > {int(max_df)}").materialize()

    n_common = common.count()
    if n_common * 8 <= util.BROADCAST_LIMIT_BYTES:
        import ray
        arr = np.sort(np.concatenate(
            [b["_h"].to_numpy(zero_copy_only=False)
             for b in common.iter_batches(batch_format="pyarrow")]
            or [np.array([], dtype=np.int64)]))
        ref = ray.put(pa.array(arr, type=pa.int64()))

        def flag(batch: pa.Table) -> pa.Table:
            iscom = pc.cast(pc.is_in(batch["_h"], value_set=ray.get(ref)),
                            pa.int64())
            return pa.table({key_col: batch[key_col],
                             "n_types": batch["n_types"], "_com": iscom})

        flagged = pairs.map_batches(flag, batch_format="pyarrow")
    else:
        from .relational import bucketed_hash_join
        marked = bucketed_hash_join(
            pairs, common.map_batches(
                lambda t: pa.table({"_h": t["_h"],
                                    "_com": pa.array(np.ones(t.num_rows,
                                                             dtype=np.int64))}),
                batch_format="pyarrow"),
            on="_h", how="left")

        def fill(batch: pa.Table) -> pa.Table:
            c = batch["_com"].to_numpy(zero_copy_only=False)
            c = np.nan_to_num(c.astype(np.float64), nan=0.0).astype(np.int64)
            return pa.table({key_col: batch[key_col],
                             "n_types": batch["n_types"].cast(pa.int64()),
                             "_com": pa.array(c)})

        flagged = marked.map_batches(fill, batch_format="pyarrow")

    per_doc = flagged.groupby(key_col).aggregate(
        Sum("_com", alias_name="n_common"),
        Max("n_types", alias_name="n_types"))

    def finish(batch: pa.Table) -> pa.Table:
        nt = batch["n_types"].to_numpy(zero_copy_only=False).astype(np.int64)
        nc = batch["n_common"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        nr = nt - nc
        frac = np.floor(nr * 10000.0 / np.maximum(nt, 1)) / 10000
        return pa.table({key_col: batch[key_col], "n_types": pa.array(nt),
                         "n_rare_types": pa.array(nr),
                         "rare_frac": pa.array(frac)})

    return per_doc.map_batches(finish, batch_format="pyarrow")


def bpe_train(ds, text_col: str = "text", num_merges: int = 10):
    """Distributed BPE tokenizer training (Sennrich et al. 2016): learn
    ``num_merges`` byte-pair merges over the corpus.  Returns a pa.Table
    (rank, left, right, freq) in merge order.

    Scale shape — the standard frequency-table trick: the ONLY
    corpus-scale pass is the word-frequency groupby (per-batch partial
    counts, one vocab-keyed shuffle).  Every merge round then runs over
    the VOCABULARY dataset (Zipf: ~10^6-10^8 rows even for web corpora,
    millions of times smaller than the corpus): per-batch adjacent-pair
    counts weighted by word frequency → one tiny groupby(pair) sum →
    per-block prune to the top candidate → driver picks the global best
    (count desc, pair asc — deterministic across partitionings) → a
    vectorized-per-word rewrite applies the merge.  Per-word Python here
    is bounded by word LENGTH on vocab rows, not corpus rows.

    Not SQL-expressible (greedy iterative argmax) → rows-only driver
    check; pytest pins equality with a single-process reference BPE at
    two parallelism levels."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    from .relational import ds_to_table

    def wc(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(
            pc.split_pattern(batch[text_col], pattern=" "))
        flat = flat.filter(pc.not_equal(flat, ""))
        g = pa.table({"word": flat}).group_by("word") \
            .aggregate([("word", "count")])
        return pa.table({"word": g["word"],
                         "pcnt": g["word_count"].cast(pa.int64())})

    vocab = ds.map_batches(wc, batch_format="pyarrow") \
        .groupby("word").aggregate(Sum("pcnt", alias_name="freq"))

    def init_syms(batch: pa.Table) -> pa.Table:
        syms = [" ".join(w) for w in batch["word"].to_pylist()]
        return pa.table({"syms": pa.array(syms, type=pa.string()),
                         "freq": batch["freq"].cast(pa.int64())})

    vocab = vocab.map_batches(init_syms, batch_format="pyarrow") \
        .materialize()

    merges: list[tuple[int, str, str, int]] = []
    for rank in range(num_merges):
        def pair_counts(batch: pa.Table) -> pa.Table:
            d: dict[tuple[str, str], int] = {}
            for s, f in zip(batch["syms"].to_pylist(),
                            batch["freq"].to_pylist()):
                toks = s.split(" ")
                for a, b in zip(toks, toks[1:]):
                    d[(a, b)] = d.get((a, b), 0) + f
            ls, rs, cs = [], [], []
            for (a, b), c in d.items():
                ls.append(a); rs.append(b); cs.append(c)
            return pa.table({"l": pa.array(ls, type=pa.string()),
                             "r": pa.array(rs, type=pa.string()),
                             "pcnt": pa.array(cs, type=pa.int64())})

        counts = vocab.map_batches(pair_counts, batch_format="pyarrow") \
            .groupby(["l", "r"]).aggregate(Sum("pcnt", alias_name="n"))

        def prune(t: pa.Table) -> pa.Table:
            t = pa.table({"l": t["l"], "r": t["r"],
                          "n": t["n"].cast(pa.int64())})
            return t.sort_by([("n", "descending"), ("l", "ascending"),
                              ("r", "ascending")]).slice(0, 1)

        cand = ds_to_table(counts.map_batches(prune,
                                              batch_format="pyarrow"))
        if cand.num_rows == 0:
            break
        cand = cand.sort_by([("n", "descending"), ("l", "ascending"),
                             ("r", "ascending")])
        left, right = cand["l"][0].as_py(), cand["r"][0].as_py()
        freq = cand["n"][0].as_py()
        merges.append((rank, left, right, freq))
        joined = left + right

        def apply(batch: pa.Table, _l=left, _r=right, _j=joined) -> pa.Table:
            out = []
            for s in batch["syms"].to_pylist():
                toks = s.split(" ")
                res, i = [], 0
                while i < len(toks):
                    if (i + 1 < len(toks) and toks[i] == _l
                            and toks[i + 1] == _r):
                        res.append(_j)
                        i += 2
                    else:
                        res.append(toks[i])
                        i += 1
                out.append(" ".join(res))
            return pa.table({"syms": pa.array(out, type=pa.string()),
                             "freq": batch["freq"]})

        vocab = vocab.map_batches(apply, batch_format="pyarrow") \
            .materialize()

    return pa.table({
        "rank": pa.array([m[0] for m in merges], type=pa.int64()),
        "left": pa.array([m[1] for m in merges], type=pa.string()),
        "right": pa.array([m[2] for m in merges], type=pa.string()),
        "freq": pa.array([m[3] for m in merges], type=pa.int64())})


def compression_ratio_batch(batch: pa.Table, text_col="text",
                            level: int = 6) -> pa.Table:
    """Per-doc zlib compression ratio — the RefinedWeb/Gopher-family
    quality heuristic: natural prose compresses ~2.5-4x, machine-generated
    repetition compresses far more (low ratio) and binary-ish noise barely
    at all (ratio near 1).  Pure map, no shuffle; the per-doc loop calls
    C-speed ``zlib.compress`` once per document (bounded by doc length),
    never per character.  Deterministic for a fixed level/zlib build but
    not SQL-expressible → rows-only driver check, pytest pins the
    repetitive < prose < noise ordering and partition invariance."""
    import zlib

    texts = batch[text_col].to_pylist()
    raw = np.empty(len(texts), dtype=np.int64)
    comp = np.empty(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        b = t.encode("utf-8", "surrogatepass")
        raw[i] = len(b)
        comp[i] = len(zlib.compress(b, level))
    ratio = np.round(comp / np.maximum(raw, 1), 4)
    out = batch.append_column("raw_bytes", pa.array(raw))
    out = out.append_column("comp_bytes", pa.array(comp))
    return out.append_column("compression_ratio", pa.array(ratio))


def repetition_stats_batch(batch: pa.Table, text_col="text") -> pa.Table:
    """Gopher-style repetition signals per doc: word count, the count of
    the most frequent word and word-bigram, and their fractions (quality
    filters drop docs whose top n-gram dominates — boilerplate / spam).

    Vectorized across the whole batch, no per-doc Python: words explode
    arrow-natively (split_pattern + list_parent_indices), one global
    np.unique assigns integer codes, and per-(doc, code) counts come from
    a lexsort + run-length pass with np.maximum.at for the per-doc max.
    Bigrams are code pairs restricted to within-doc adjacency.

    Fractions are FLOOR-truncated at 4 decimals (not rounded): numpy
    rounds half-to-even, DuckDB half-away — truncation is the one
    convention both engines compute identically.  The SQL twin counts the
    actual strings; results agree exactly (codes are just a compression).
    """
    import pyarrow.compute as pc
    n = batch.num_rows
    if n == 0:
        empty = pa.array([], type=pa.int64())
        emptyf = pa.array([], type=pa.float64())
        return (batch.append_column("n_words", empty)
                .append_column("top_word_n", empty)
                .append_column("top_bigram_n", empty)
                .append_column("top_word_frac", emptyf)
                .append_column("top_bigram_frac", emptyf))
    parts = pc.split_pattern(batch[text_col], pattern=" ")
    nw = pc.list_value_length(parts).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    idx = pc.list_parent_indices(parts).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    flat = np.asarray(pc.list_flatten(parts))
    uw, codes = np.unique(flat, return_inverse=True)

    def _top_per_doc(doc_idx, keys):
        order = np.lexsort((keys, doc_idx))
        si, sk = doc_idx[order], keys[order]
        top = np.zeros(n, dtype=np.int64)
        if len(si) == 0:
            return top
        bnd = np.r_[True, (si[1:] != si[:-1]) | (sk[1:] != sk[:-1])]
        starts = np.flatnonzero(bnd)
        runlen = np.diff(np.r_[starts, len(si)])
        np.maximum.at(top, si[starts], runlen)
        return top

    top_w = _top_per_doc(idx, codes.astype(np.uint64))
    adj = idx[1:] == idx[:-1]
    K = np.uint64(len(uw) + 1)
    bc = codes[:-1].astype(np.uint64)[adj] * K \
        + codes[1:].astype(np.uint64)[adj]
    top_b = _top_per_doc(idx[:-1][adj], bc)
    nb = np.maximum(nw - 1, 0)
    twf = np.floor(top_w * 10000.0 / np.maximum(nw, 1)) / 10000
    tbf = np.floor(top_b * 10000.0 / np.maximum(nb, 1)) / 10000
    return (batch.append_column("n_words", pa.array(nw))
            .append_column("top_word_n", pa.array(top_w))
            .append_column("top_bigram_n", pa.array(top_b))
            .append_column("top_word_frac", pa.array(twf))
            .append_column("top_bigram_frac", pa.array(tbf)))


# PII redaction patterns, applied IN ORDER on the progressively redacted
# string (each count is taken on the text as it stands before that
# pattern's replacement — the SQL oracle twin chains identically).
# RE2 on both sides (pyarrow.compute and DuckDB), so leftmost/greedy
# semantics agree.
_PII_PATTERNS = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("phone", r"\b\d{3}-\d{3}-\d{4}\b", "<PHONE>"),
    ("ipv4", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
)


def redact_pii_batch(batch: pa.Table, text_col="text",
                     out_col="text_redacted") -> pa.Table:
    """PII redaction: emails, NANP-style phone numbers and IPv4 literals
    replaced with typed placeholder tokens, with a per-doc count of each.
    Fully arrow-native — one C++ ``count_substring_regex`` +
    ``replace_substring_regex`` pass per pattern, no per-row Python.

    Scale shape: pure per-batch map (no shuffle, no state); at 100 TB this
    pipelines at read speed.  Training-data analogue of the reference's
    per-record normalization stages (prclz/etl normalize semantics)."""
    import pyarrow.compute as pc
    arr = batch[text_col]
    out = batch
    for name, pat, repl in _PII_PATTERNS:
        n = pc.count_substring_regex(arr, pattern=pat).cast(pa.int64())
        out = out.append_column(f"n_{name}", n)
        arr = pc.replace_substring_regex(arr, pattern=pat, replacement=repl)
    return out.append_column(out_col, arr)


def fingerprint_batch(batch: pa.Table, text_col="text", window: int = 8) -> pa.Table:
    """Rolling-hash document fingerprint: min-sampled winnowing digest
    over sliding byte windows + full-content blake2b.  Window hashes are
    a wrapping-uint64 polynomial computed as ``window`` shifted VECTOR ops
    over the whole byte array (no per-byte python loop — at corpus scale
    the per-byte interpreter path is the bottleneck)."""
    texts = batch[text_col].to_pylist()
    fps, full = [], []
    prime = np.uint64(1099511628211)
    for t in texts:
        data = t.encode()
        full.append(hashlib.blake2b(data, digest_size=16).hexdigest())
        if len(data) < window:
            fps.append(int.from_bytes(
                hashlib.blake2b(data, digest_size=8).digest(), "big"))
            continue
        b = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
        n = len(b) - window + 1
        hs = np.zeros(n, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for j in range(window):
                hs = hs * prime + b[j:j + n]
        fps.append(int(hs.min()))
    # int64 two's-complement view of the u64 hash: keeps the wire type
    # oracle-comparable (DuckDB BIGINT) without losing bits
    fp_i64 = np.array(fps, dtype=np.uint64).view(np.int64)
    out = batch.append_column("fingerprint", pa.array(fp_i64))
    return out.append_column("content_hash", pa.array(full))


def top_k_ngrams(ds, text_col: str = "text", n: int = 2, k: int = 20):
    """Corpus top-k word n-grams (LM n-gram statistics): same shape as
    ``top_k_words`` — per-batch partial counts, one groupby-sum per
    distinct n-gram, per-block prune, k×blocks driver merge.  N-grams are
    formed by joining ``n`` consecutive space-split words WITHIN a
    document (the vectorized shift-and-join never crosses doc boundaries).
    Ties at the k boundary break by n-gram ascending."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        parts = pc.split_pattern(batch[text_col], pattern=" ")
        flat = pc.list_flatten(parts).combine_chunks()
        parent = pc.list_parent_indices(parts).to_numpy(
            zero_copy_only=False)
        if len(flat) < n:
            return pa.table({"gram": pa.array([], type=pa.string()),
                             "pcnt": pa.array([], type=pa.int64())})
        shifted = [flat.slice(i, len(flat) - n + 1) for i in range(n)]
        joined = shifted[0]
        for s in shifted[1:]:
            joined = pc.binary_join_element_wise(joined, s, " ")
        same_doc = parent[: len(parent) - n + 1] == parent[n - 1:]
        g = pa.table({"gram": joined.filter(pa.array(same_doc))}) \
            .group_by("gram").aggregate([("gram", "count")])
        return pa.table({"gram": g["gram"],
                         "pcnt": g["gram_count"].cast(pa.int64())})

    counts = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("gram").aggregate(Sum("pcnt", alias_name="n"))

    def prune(t: pa.Table) -> pa.Table:
        t = pa.table({"gram": t["gram"], "n": t["n"].cast(pa.int64())})
        return t.sort_by([("n", "descending"), ("gram", "ascending")]) \
            .slice(0, k)

    from .relational import ds_to_table
    cand = ds_to_table(counts.map_batches(prune, batch_format="pyarrow"))
    return cand.sort_by([("n", "descending"), ("gram", "ascending")]) \
        .slice(0, k)


def tfidf_top_terms(ds, key_col: str = "doc_id", text_col: str = "text",
                    top_n: int = 3):
    """Per-document top-N TF-IDF terms (keyword extraction):
    score = tf × ln(N / df), rank per doc by (score DESC, word ASC).

    Scale shape — the inverted-index pattern, fully streaming:
      1. per-batch explode → per-doc term frequencies (docs are rows, so
         a doc never spans batches; empty tokens dropped);
      2. document frequency: per-batch DISTINCT (doc, word) partials →
         one groupby-sum per distinct word;
      3. the (word, df) vocabulary attaches to the tf rows via a
         size-guarded ``ray.put`` broadcast merge (Zipf vocabularies are
         ~MBs even for web corpora) with a bucketed co-shuffle join
         fallback past the byte budget — the same guarded pattern as
         ``jaccard_verify_pairs``;
      4. per-doc top-N: per-batch prune to ≤ top_n rows per doc, then one
         groupby(doc-bucket) exact select — the grouped_top_n pattern
         with a (score, word) composite order.
    ``n_docs`` must be supplied-or-counted once (a count() pass)."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    from .relational import broadcast_join, bucketed_hash_join, ds_to_table

    n_docs = ds.count()

    def tf_partial(batch: pa.Table) -> pa.Table:
        parts = pc.split_pattern(batch[text_col], pattern=" ")
        idx = pc.list_parent_indices(parts)
        flat = pc.list_flatten(parts)
        keys = batch[key_col].take(idx)
        t = pa.table({key_col: keys, "word": flat})
        t = t.filter(pc.not_equal(t["word"], ""))
        g = t.group_by([key_col, "word"]).aggregate([([], "count_all")])
        return pa.table({key_col: g[key_col], "word": g["word"],
                         "tf": g["count_all"].cast(pa.int64())})

    tf = ds.map_batches(tf_partial, batch_format="pyarrow")

    def df_partial(batch: pa.Table) -> pa.Table:
        # tf rows are already distinct (doc, word) pairs: df partial =
        # count per word
        g = batch.group_by("word").aggregate([([], "count_all")])
        return pa.table({"word": g["word"],
                         "pdf": g["count_all"].cast(pa.int64())})

    df = tf.map_batches(df_partial, batch_format="pyarrow") \
        .groupby("word").aggregate(Sum("pdf", alias_name="df")) \
        .materialize()  # vocabulary-sized; probed for the broadcast guard

    vocab_bytes = df.size_bytes() or 0
    if vocab_bytes <= util.BROADCAST_LIMIT_BYTES:
        joined = broadcast_join(tf, ds_to_table(df), on="word")
    else:
        joined = bucketed_hash_join(tf, df, on="word")

    def score(batch: pa.Table) -> pa.Table:
        s = batch["tf"].to_numpy(zero_copy_only=False).astype(np.float64) \
            * np.log(n_docs / batch["df"].to_numpy(
                zero_copy_only=False).astype(np.float64))
        t = pa.table({key_col: batch[key_col], "word": batch["word"],
                      "score": pa.array(s, type=pa.float64())})
        # per-batch prune: keep ≤ top_n rows per doc (order score DESC,
        # word ASC) so the final shuffle carries n·docs rows, not all terms
        d = t.to_pandas().sort_values(
            ["score", "word"], ascending=[False, True], kind="mergesort")
        return d.groupby(key_col, sort=False).head(top_n)

    def final(group: pd.DataFrame) -> pa.Table:
        # one coarse bucket = many docs: vectorized per-doc exact top-n
        g = group.sort_values(["score", "word"],
                              ascending=[False, True], kind="mergesort") \
            .groupby(key_col, sort=False).head(top_n)
        g = g.sort_values([key_col, "score", "word"],
                          ascending=[True, False, True], kind="mergesort")
        g["rank"] = g.groupby(key_col, sort=False).cumcount() + 1
        g["score"] = g["score"].round(4)
        return pa.Table.from_pandas(g, preserve_index=False)

    return bucket_shuffle(joined, key_col, final, prepare=score)


def posting_lists(ds, key_col: str = "doc_id", text_col: str = "text",
                  min_df: int = 2, max_df: int = 10**9):
    """Inverted index: one row per word with its document frequency and
    the comma-joined SORTED posting list of doc ids.

    Scale shape: distinct (doc, word) pairs explode per batch, ONE
    coarse shuffle on the word-hash bucket, per-bucket vectorized sort +
    df filter; the string join is per surviving word, bounded by
    ``max_df`` (cap postings for stopword-like terms BEFORE building
    strings)."""
    import pyarrow.compute as pc

    def explode(batch: pa.Table) -> pa.Table:
        parts = pc.split_pattern(batch[text_col], pattern=" ")
        idx = pc.list_parent_indices(parts)
        flat = pc.list_flatten(parts)
        keys = batch[key_col].take(idx)
        t = pa.table({key_col: keys, "word": flat})
        t = t.filter(pc.not_equal(t["word"], ""))
        return t.group_by([key_col, "word"]).aggregate([])

    def per_bucket(group: pd.DataFrame) -> pa.Table:
        df_ = group.groupby("word", sort=False)[key_col].transform("size")
        live = group[(df_ >= min_df) & (df_ <= max_df)]
        if live.empty:
            return pa.Table.from_pylist([], schema=pa.schema(
                [("word", pa.string()), ("df", pa.int64()),
                 ("postings", pa.string())]))
        live = live.sort_values(["word", key_col])
        g = live.groupby("word", sort=False)[key_col]
        out = pd.DataFrame({
            "word": g.size().index,
            "df": g.size().to_numpy(dtype=np.int64),
            "postings": g.agg(
                lambda s: ",".join(map(str, s.to_numpy()))).to_numpy(),
        })
        return pa.Table.from_pandas(out, preserve_index=False)

    return bucket_shuffle(ds, "word", per_bucket, prepare=explode)


def extract_regex_field(ds, col: str, pattern: str, out_col: str,
                        cast_to: "pa.DataType | None" = None):
    """Structured-field extraction from a semi-structured string column
    (JSON-ish props, logfmt, k=v blobs): ONE arrow C++ RE2
    ``extract_regex`` pass per batch — no per-row json.loads loop in the
    hot path.  ``pattern`` must contain a single named group matching
    ``out_col``; non-matching rows yield null."""
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        m = pc.extract_regex(batch[col], pattern=pattern)
        v = pc.struct_field(m, out_col)
        if cast_to is not None:
            v = v.cast(cast_to)
        return batch.append_column(out_col, v)

    return ds.map_batches(f, batch_format="pyarrow")


def ngram_diversity_stats(ds, key_col: str = "doc_id",
                          text_col: str = "text", k: int = 8):
    """Within-doc n-gram diversity (the Gopher duplicate-n-gram signal,
    inverted): per doc, the number of character ``k``-gram positions, the
    distinct count, and the distinct fraction — low diversity flags
    templated/repetitive text.  Docs shorter than ``k`` count one
    whole-text gram.

    Pure per-batch map, NO shuffle: one vectorized codepoint-polynomial
    pass hashes every position across the batch's concatenated texts
    (same kernel as ``duplicate_span_stats``), then a per-doc unique
    count via one lexsort over (doc, hash).  Fraction floor-truncated at
    4 decimals (numpy/DuckDB-identical)."""
    prime = np.uint64(1099511628211)

    def stats(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        if not texts:
            return pa.table({key_col: batch[key_col],
                             "n_grams": pa.array([], type=pa.int64()),
                             "n_distinct": pa.array([], type=pa.int64()),
                             "distinct_frac": pa.array([],
                                                       type=pa.float64())})
        lens = np.array([len(t) for t in texts], dtype=np.int64)
        flat = np.frombuffer(
            b"".join(t.encode("utf-32-le") for t in texts),
            dtype=np.uint32).astype(np.uint64)
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        nall = max(len(flat) - k + 1, 0)
        hs_all = np.zeros(nall, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for j in range(k):
                hs_all = hs_all * prime + flat[j:j + nall]
        n_win = np.where(lens >= k, lens - k + 1, 0).astype(np.int64)
        doc_idx = np.repeat(np.arange(len(texts)), n_win)
        within = (np.arange(n_win.sum(), dtype=np.int64)
                  - np.repeat(np.cumsum(n_win) - n_win, n_win))
        pos = starts[doc_idx] + within
        h = hs_all[pos] if len(pos) else np.array([], dtype=np.uint64)
        # distinct per doc: one lexsort, then count (doc, hash) changes
        order = np.lexsort((h, doc_idx))
        d_s, h_s = doc_idx[order], h[order]
        new = np.r_[True, (d_s[1:] != d_s[:-1]) | (h_s[1:] != h_s[:-1])] \
            if len(d_s) else np.array([], dtype=bool)
        n_distinct = np.bincount(d_s[new], minlength=len(texts)) \
            if len(d_s) else np.zeros(len(texts), dtype=np.int64)
        # short docs: 1 gram, 1 distinct
        short = lens < k
        n_grams = np.where(short, 1, n_win)
        n_distinct = np.where(short, 1, n_distinct).astype(np.int64)
        frac = np.floor(n_distinct / np.maximum(n_grams, 1) * 10_000) \
            / 10_000
        return pa.table({key_col: batch[key_col],
                         "n_grams": pa.array(n_grams),
                         "n_distinct": pa.array(n_distinct),
                         "distinct_frac": pa.array(frac,
                                                   type=pa.float64())})

    return ds.map_batches(stats, batch_format="pyarrow")


def filter_decision_batch(t: pa.Table, min_tokens: int = 20,
                          max_top_word_frac: float = 0.13) -> pa.Table:
    """Corpus keep/drop verdict from already-computed hygiene columns
    (``lang_pred``, ``tokens_ws``, ``top_word_frac``): vectorized reason
    bitmask — 1 = too short, 2 = repetitive (top-word dominated),
    4 = language unknown; keep = no reason bits."""
    toks = t["tokens_ws"].to_numpy(zero_copy_only=False)
    twf = t["top_word_frac"].to_numpy(zero_copy_only=False)
    lang = np.asarray(t["lang_pred"].to_pylist(), dtype=object)
    reason = ((toks < min_tokens).astype(np.int64)
              + 2 * (twf > max_top_word_frac).astype(np.int64)
              + 4 * (lang == "und").astype(np.int64))
    out = t.append_column("keep", pa.array((reason == 0).astype(np.int64)))
    return out.append_column("reason", pa.array(reason))

def bigram_lm_scores(ds, key_col: str = "doc_id", text_col: str = "text",
                     round_to: int = 4):
    """CCNet-style n-gram LM scoring: train an add-1-smoothed bigram
    model on the corpus, then score every doc by its mean negative
    log-likelihood — the perplexity filter that keeps fluent text and
    drops gibberish (Wenzek et al., CCNet; they use KenLM, the smoothing
    here is the SQL-twin-checkable simplification).

    P(w2|w1) = (c(w1,w2)+1) / (c(w1·)+V), V = corpus unigram vocabulary.

    Scale shape: the corpus is read twice (count pass, score pass), both
    streaming; bigram counts reduce through ONE (w1,w2)-key groupby to a
    vocabulary²-bounded (in practice Zipf ~vocab-sized) table that
    attaches back via a size-guarded ``ray.put`` broadcast — past the
    byte budget the fallback explodes doc bigrams and runs two bucketed
    co-shuffle joins (pair key, then context key) before one per-doc
    groupby-sum.  Docs with <2 tokens emit n_bigrams=0, nll=0."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from .relational import broadcast_join, bucketed_hash_join, ds_to_table

    # Space cannot appear INSIDE a space-split token, so "w1 w2" is an
    # unambiguous pair key.  Do NOT use "\x00": pandas str-concat silently
    # DROPS embedded NULs and pd.util.hash_array truncates at them, so a
    # NUL-keyed bucketed join both skews and (via mixed construction
    # paths) mismatches.
    SEP = " "

    def explode_bigrams(batch: pa.Table, with_key: bool) -> pa.Table:
        parts = pc.split_pattern(batch[text_col], pattern=" ")
        off = np.zeros(len(batch) + 1, dtype=np.int64)
        np.cumsum(pc.list_value_length(parts)
                  .to_numpy(zero_copy_only=False), out=off[1:])
        flat = pc.list_flatten(parts).to_pandas().to_numpy(dtype=object)
        n_big = np.maximum(off[1:] - off[:-1] - 1, 0)
        # bigram start positions: every flat index except each doc's last
        starts = np.repeat(off[:-1], n_big) + _ragged_arange(n_big)
        w1, w2 = flat[starts], flat[starts + 1]
        cols = {"w1": pa.array(w1, type=pa.string()),
                "w2": pa.array(w2, type=pa.string())}
        if with_key:
            keys = batch[key_col].to_numpy(zero_copy_only=False)
            cols[key_col] = pa.array(np.repeat(keys, n_big))
        return pa.table(cols)

    def count_partial(batch: pa.Table) -> pa.Table:
        t = explode_bigrams(batch, with_key=False)
        g = t.group_by(["w1", "w2"]).aggregate([([], "count_all")])
        return pa.table({"w1": g["w1"], "w2": g["w2"],
                         "pc": g["count_all"].cast(pa.int64())})

    bc = ds.map_batches(count_partial, batch_format="pyarrow") \
        .groupby(["w1", "w2"]).aggregate(Sum("pc", alias_name="c12")) \
        .materialize()

    def vocab_partial(batch: pa.Table) -> pa.Table:
        parts = pc.split_pattern(batch[text_col], pattern=" ")
        return pa.table({"word": pc.unique(pc.list_flatten(parts))})

    vocab = ds.map_batches(vocab_partial, batch_format="pyarrow") \
        .groupby("word").count().count()

    if (bc.size_bytes() or 0) <= util.BROADCAST_LIMIT_BYTES:
        import ray
        t = ds_to_table(bc)
        if "w1" not in t.column_names:  # empty corpus: schema-less table
            t = pa.table({"w1": pa.array([], type=pa.string()),
                          "w2": pa.array([], type=pa.string()),
                          "c12": pa.array([], type=pa.int64())})
        pair_idx = pd.Index(pd.Series(t["w1"].to_pandas()) + SEP
                            + pd.Series(t["w2"].to_pandas()))
        c12 = t["c12"].to_numpy(zero_copy_only=False).astype(np.int64)
        ctx = pd.Series(c12).groupby(
            pd.Series(t["w1"].to_pandas())).sum()
        ref = ray.put((pair_idx, c12, pd.Index(ctx.index),
                       ctx.to_numpy(dtype=np.int64)))

        def score(batch: pa.Table) -> pa.Table:
            pidx, pc12, cidx, cctx = ray.get(ref)
            t = explode_bigrams(batch, with_key=True)
            n_doc = len(batch)
            if len(t) == 0:
                return pa.table({
                    key_col: batch[key_col],
                    "n_bigrams": pa.array(
                        np.zeros(n_doc, dtype=np.int64)),
                    "nll": pa.array(np.zeros(n_doc))})
            w1 = t["w1"].to_pandas()
            pos = pidx.get_indexer(w1 + SEP + t["w2"].to_pandas())
            cpos = cidx.get_indexer(w1)
            c12v = np.where(pos >= 0, pc12[np.maximum(pos, 0)], 0)
            c1v = np.where(cpos >= 0, cctx[np.maximum(cpos, 0)], 0)
            ll = np.log((c12v + 1.0) / (c1v + float(vocab)))
            keys = batch[key_col].to_numpy(zero_copy_only=False)
            kidx = pd.Index(keys).get_indexer(
                t[key_col].to_numpy(zero_copy_only=False))
            n_big = np.zeros(n_doc, dtype=np.int64)
            np.add.at(n_big, kidx, 1)
            s = np.zeros(n_doc)
            np.add.at(s, kidx, ll)
            nll = np.round(
                np.where(n_big > 0, -s / np.maximum(n_big, 1), 0.0),
                round_to)
            return pa.table({key_col: batch[key_col],
                             "n_bigrams": pa.array(n_big),
                             "nll": pa.array(nll)})

        return ds.map_batches(score, batch_format="pyarrow")

    # fallback: pair-key join, context-key join, per-doc groupby-sum
    big = ds.map_batches(
        lambda b: explode_bigrams(b, with_key=True),
        batch_format="pyarrow")
    ctx_ds = bc.map_batches(
        lambda t: pa.table({"w1": t["w1"], "pcc": t["c12"]}),
        batch_format="pyarrow").groupby("w1") \
        .aggregate(Sum("pcc", alias_name="c1"))
    j = bucketed_hash_join(
        big.map_batches(lambda t: t.append_column(
            "_pair", pc.binary_join_element_wise(t["w1"], t["w2"], SEP)),
            batch_format="pyarrow"),
        bc.map_batches(lambda t: pa.table({
            "_pair": pc.binary_join_element_wise(t["w1"], t["w2"], SEP),
            "c12": t["c12"]}), batch_format="pyarrow"),
        on="_pair", how="left")
    j = bucketed_hash_join(j, ctx_ds, on="w1", how="left")

    def term_partial(batch: pa.Table) -> pa.Table:
        c12v = batch["c12"].to_pandas().fillna(0) \
            .to_numpy(dtype=np.int64)
        c1v = batch["c1"].to_pandas().fillna(0).to_numpy(dtype=np.int64)
        ll = np.log((c12v + 1.0) / (c1v + float(vocab)))
        return pa.table({key_col: batch[key_col],
                         "pll": pa.array(ll),
                         "pn": pa.array(np.ones(len(batch),
                                                dtype=np.int64))})

    def per_doc(group: pd.DataFrame) -> pa.Table:
        g = group.groupby(key_col, sort=False).agg(
            s=("pll", "sum"), n_bigrams=("pn", "sum")).reset_index()
        g["nll"] = (-g["s"] / g["n_bigrams"]).round(round_to)
        return pa.Table.from_pandas(
            g[[key_col, "n_bigrams", "nll"]], preserve_index=False)

    scored = bucket_shuffle(j, key_col, per_doc, prepare=term_partial)
    # docs with <2 tokens never produced a bigram row: union them back
    def short_docs(batch: pa.Table) -> pa.Table:
        parts = pc.split_pattern(batch[text_col], pattern=" ")
        m = pc.less(pc.list_value_length(parts), 2)
        keys = batch[key_col].filter(m)
        z = np.zeros(len(keys), dtype=np.int64)
        return pa.table({key_col: keys, "n_bigrams": pa.array(z),
                         "nll": pa.array(z.astype(np.float64))})

    return scored.union(
        ds.map_batches(short_docs, batch_format="pyarrow"))


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """[0..c0), [0..c1), ... concatenated — vectorized."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    idx = np.arange(total, dtype=np.int64)
    resets = np.repeat(np.cumsum(counts) - counts, counts)
    return idx - resets


def char_entropy_batch(batch: pa.Table, text_col: str = "text",
                       round_to: int = 4) -> pa.Table:
    """Per-doc Shannon entropy of the codepoint distribution (bits) — a
    cheap gibberish/binary-noise quality signal.  Fully vectorized: one
    UTF-32 decode of the whole batch, one np.unique over packed
    (doc, codepoint) keys, one scatter-add.  Pure map, SQL twin via
    regexp_extract_all('(?s).')."""
    texts = batch[text_col].to_pylist()
    n = np.array([len(t) for t in texts], dtype=np.int64)
    cp = np.frombuffer("".join(texts).encode("utf-32-le"),
                       dtype=np.uint32).astype(np.int64)
    doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), n)
    key = (doc_idx << np.int64(21)) | cp
    uniq, counts = np.unique(key, return_counts=True)
    udoc = uniq >> np.int64(21)
    p = counts / n[udoc]
    ent = np.zeros(len(texts))
    np.add.at(ent, udoc, -p * np.log2(p))
    return pa.table({
        **{c: batch[c] for c in batch.column_names if c != text_col},
        "entropy": pa.array(np.round(ent, round_to))})

def chunk_documents(ds, key_col: str = "doc_id", text_col: str = "text",
                    chunk_tokens: int = 64, overlap_tokens: int = 0):
    """Context-window chunking: split each doc's space-split tokens into
    windows of ``chunk_tokens`` with ``overlap_tokens`` overlap (stride =
    chunk − overlap), the standard pre-tokenization step for LM training
    and embedding indexing.  Emits (key, chunk_idx, chunk_text,
    n_tokens); every token is covered; the last chunk may be short.

    Pure per-batch flat-map — no shuffle; rows only grow by ~1/stride.
    Window starts are vectorized (ragged arange over per-doc chunk
    counts); only the final per-chunk string join is a bounded Python
    loop (C-speed ``' '.join`` per chunk)."""
    import pyarrow.compute as pc

    stride = chunk_tokens - overlap_tokens
    if stride <= 0:
        raise ValueError("overlap must be smaller than chunk size")

    def chunk(batch: pa.Table) -> pa.Table:
        parts = pc.split_pattern(batch[text_col], pattern=" ")
        n = pc.list_value_length(parts).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        off = np.zeros(len(batch) + 1, dtype=np.int64)
        np.cumsum(n, out=off[1:])
        flat = pc.list_flatten(parts).to_pandas().to_numpy(dtype=object)
        n_chunks = (np.maximum(n, 1) - 1) // stride + 1
        doc_rep = np.repeat(np.arange(len(batch)), n_chunks)
        chunk_idx = _ragged_arange(n_chunks)
        starts = off[:-1][doc_rep] + chunk_idx * stride
        ends = np.minimum(starts + chunk_tokens, off[1:][doc_rep])
        texts = [" ".join(flat[s:e]) for s, e in zip(starts, ends)]
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        return pa.table({
            key_col: pa.array(np.repeat(keys, n_chunks)),
            "chunk_idx": pa.array(chunk_idx),
            "chunk_text": pa.array(texts, type=pa.string()),
            "n_tokens": pa.array(ends - starts)})

    return ds.map_batches(chunk, batch_format="pyarrow")


def reassemble_chunks(chunks_ds, key_col: str = "doc_id",
                      idx_col: str = "chunk_idx",
                      text_col: str = "chunk_text"):
    """Ordered grouped concatenation — STRING_AGG(text, ' ' ORDER BY
    idx) per key: the inverse of zero-overlap ``chunk_documents`` (the
    roundtrip is pytest-pinned).  ONE coarse-bucket shuffle; per bucket a
    vectorized sort + per-key C join."""
    def per_bucket(group: pd.DataFrame) -> pa.Table:
        df = group.sort_values([key_col, idx_col])
        g = df.groupby(key_col, sort=False)
        out = g.agg(text=(text_col, " ".join),
                    n_chunks=(idx_col, "size")).reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    return bucket_shuffle(
        chunks_ds, key_col, per_bucket,
        prepare=lambda t: t.select([key_col, idx_col, text_col]))

def top_pmi_collocations(ds, text_col: str = "text", k: int = 20,
                         min_count: int = 5, round_to: int = 4):
    """Collocation extraction: the top-k adjacent word pairs by
    pointwise mutual information, PMI = ln(c12 · W / (c1 · c2)) with W =
    total bigram tokens, c1/c2 = the word's count as left/right bigram
    element, filtered to pairs with c12 ≥ min_count (the classic
    sparse-PMI guard).

    Scale shape: ONE (w1, w2) groupby builds the bigram table (corpus
    touched once, per-batch count partials); the unigram margins derive
    from that vocabulary-sized table, not the corpus; per-block top-k
    prune then a driver merge of k×blocks candidates — the same
    heavy-hitter tail as top_k_words.  Ties break (pmi DESC, w1, w2)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from .relational import broadcast_join, ds_to_table

    def count_partial(batch: pa.Table) -> pa.Table:
        parts = pc.split_pattern(batch[text_col], pattern=" ")
        off = np.zeros(len(batch) + 1, dtype=np.int64)
        np.cumsum(pc.list_value_length(parts)
                  .to_numpy(zero_copy_only=False), out=off[1:])
        flat = pc.list_flatten(parts).to_pandas().to_numpy(dtype=object)
        n_big = np.maximum(off[1:] - off[:-1] - 1, 0)
        starts = np.repeat(off[:-1], n_big) + _ragged_arange(n_big)
        t = pa.table({"w1": pa.array(flat[starts], type=pa.string()),
                      "w2": pa.array(flat[starts + 1],
                                     type=pa.string())})
        g = t.group_by(["w1", "w2"]).aggregate([([], "count_all")])
        return pa.table({"w1": g["w1"], "w2": g["w2"],
                         "pc": g["count_all"].cast(pa.int64())})

    bc = ds.map_batches(count_partial, batch_format="pyarrow") \
        .groupby(["w1", "w2"]).aggregate(Sum("pc", alias_name="c12")) \
        .materialize()

    # total + margins from the vocabulary-sized bigram table
    from ray.data.aggregate import Sum as _Sum
    tot = bc.aggregate(_Sum("c12", alias_name="w"))["w"]
    left = bc.map_batches(
        lambda t: pa.table({"w1": t["w1"], "p1": t["c12"]}),
        batch_format="pyarrow").groupby("w1") \
        .aggregate(_Sum("p1", alias_name="c1"))
    right = bc.map_batches(
        lambda t: pa.table({"w2": t["w2"], "p2": t["c12"]}),
        batch_format="pyarrow").groupby("w2") \
        .aggregate(_Sum("p2", alias_name="c2"))

    cand = bc.map_batches(
        lambda t: t.filter(pc.greater_equal(t["c12"], min_count)),
        batch_format="pyarrow")
    # margin attach is size-guarded: full-vocab margin tables broadcast
    # only under the byte budget; past it (web-scale vocabularies) the
    # margins co-shuffle with the candidates through bucketed joins
    if (bc.size_bytes() or 0) <= util.BROADCAST_LIMIT_BYTES:
        j = broadcast_join(cand, ds_to_table(left), on="w1")
        j = broadcast_join(j, ds_to_table(right), on="w2")
    else:
        from .relational import bucketed_hash_join
        j = bucketed_hash_join(cand, left, on="w1")
        j = bucketed_hash_join(j, right, on="w2")

    def score(batch: pa.Table) -> pa.Table:
        c12 = batch["c12"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        c1 = batch["c1"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        c2 = batch["c2"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        pmi = np.round(np.log(c12 * float(tot) / (c1 * c2)), round_to)
        t = pa.table({"w1": batch["w1"], "w2": batch["w2"],
                      "c12": batch["c12"].cast(pa.int64()),
                      "pmi": pa.array(pmi)})
        d = t.to_pandas().sort_values(
            ["pmi", "w1", "w2"], ascending=[False, True, True],
            kind="mergesort").head(k)
        return pa.Table.from_pandas(d, preserve_index=False)

    cand_k = ds_to_table(j.map_batches(score, batch_format="pyarrow")) \
        .to_pandas().sort_values(["pmi", "w1", "w2"],
                                 ascending=[False, True, True],
                                 kind="mergesort").head(k)
    return cand_k.reset_index(drop=True)

def bpe_encode(ds, merges: pa.Table, text_col: str = "text",
               key_col: str = "doc_id"):
    """Apply trained BPE merges (the ``bpe_train`` table) to every doc:
    emits (key, n_words, n_tokens) — the token-count-under-vocab metric
    every training-data budget works in.

    Scale shape: the merge table is O(num_merges) and ships in the task
    closure; per batch, tokenization runs over the batch's DISTINCT
    words only (Zipf: far fewer than tokens), each word encoded once by
    rank-greedy merging, then counts scatter back through the inverse
    index — the per-word loop is bounded by word length × merges on
    unique words, never corpus rows."""
    ranks = {(l, r): i for i, (l, r) in enumerate(
        zip(merges["left"].to_pylist(), merges["right"].to_pylist()))}

    def encode_word(w: str) -> int:
        syms = list(w)
        while len(syms) > 1:
            best, bi = None, -1
            for i in range(len(syms) - 1):
                r = ranks.get((syms[i], syms[i + 1]))
                if r is not None and (best is None or r < best):
                    best, bi = r, i
            if best is None:
                break
            syms[bi:bi + 2] = [syms[bi] + syms[bi + 1]]
        return len(syms)

    def f(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        parts = pc.split_pattern(batch[text_col], pattern=" ")
        n = pc.list_value_length(parts).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        flat = pc.list_flatten(parts).to_pandas()
        uniq, inv = np.unique(flat.to_numpy(dtype=object),
                              return_inverse=True)
        tok_per = np.array([encode_word(w) if w else 0 for w in uniq],
                           dtype=np.int64)
        doc_idx = np.repeat(np.arange(len(batch)), n)
        n_tok = np.zeros(len(batch), dtype=np.int64)
        np.add.at(n_tok, doc_idx, tok_per[inv])
        return pa.table({key_col: batch[key_col],
                         "n_words": pa.array(n),
                         "n_tokens": pa.array(n_tok)})

    return ds.map_batches(f, batch_format="pyarrow")

def bm25_topk(ds, query_terms: list[str], key_col: str = "doc_id",
              text_col: str = "text", k: int = 10, k1: float = 1.2,
              b: float = 0.75, round_to: int = 4):
    """BM25 ranked retrieval for one query: score = Σ_t idf(t) ·
    tf·(k1+1) / (tf + k1·(1−b+b·len/avglen)), idf = ln((N−df+0.5)/
    (df+0.5)+1) (the Robertson/Sparck-Jones form Lucene uses).

    Scale shape: per-batch explode keeps ONLY query-term rows (the
    filter happens inside the arrow pass, so the exchange carries
    |terms|·docs rows at most), df/avglen reduce from tiny partials,
    scoring is a per-batch vectorized merge, and the top-k uses the
    per-block-prune + driver-merge tail.  Ties break (score DESC,
    key ASC); scores round to ``round_to`` so the SQL twin
    hash-matches."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from .relational import ds_to_table

    terms = sorted(set(query_terms))
    n_docs = ds.count()

    def tf_partial(batch: pa.Table) -> pa.Table:
        parts = pc.split_pattern(batch[text_col], pattern=" ")
        idx = pc.list_parent_indices(parts)
        flat = pc.list_flatten(parts)
        keys = batch[key_col].take(idx)
        lens = pc.list_value_length(parts).cast(pa.int64())
        t = pa.table({key_col: keys, "word": flat})
        t = t.filter(pc.is_in(t["word"], value_set=pa.array(terms)))
        g = t.group_by([key_col, "word"]).aggregate([([], "count_all")])
        # doc lengths ride along as separate marker rows (word = None
        # can't appear post-filter; use _len flag)
        return pa.table({
            key_col: pa.concat_arrays([
                g[key_col].combine_chunks().cast(pa.int64()),
                batch[key_col].combine_chunks().cast(pa.int64())]),
            "word": pa.concat_arrays([
                g["word"].combine_chunks().cast(pa.string()),
                pa.array([""] * len(batch), type=pa.string())]),
            "tf": pa.concat_arrays([
                g["count_all"].combine_chunks().cast(pa.int64()),
                lens.combine_chunks()])})

    rows = ds.map_batches(tf_partial, batch_format="pyarrow") \
        .materialize()

    # avg doc length + per-term df from the tiny marker/term rows
    lens_tbl = ds_to_table(rows.map_batches(
        lambda t: pa.table({
            "s": pa.array([int(pc.sum(pc.multiply(
                t.filter(pc.equal(t["word"], ""))["tf"], 1)).as_py()
                or 0)], type=pa.int64()),
            "n": pa.array([t.filter(pc.equal(t["word"], "")).num_rows],
                          type=pa.int64())}),
        batch_format="pyarrow"))
    import numpy as np
    total_len = int(np.sum(lens_tbl["s"].to_numpy(zero_copy_only=False)))
    avglen = total_len / max(n_docs, 1)

    term_rows = rows.map_batches(
        lambda t: t.filter(pc.not_equal(t["word"], "")),
        batch_format="pyarrow")
    df_tbl = ds_to_table(
        term_rows.map_batches(
            lambda t: pa.table({
                "word": t["word"],
                "pdf": pa.array(np.ones(t.num_rows, dtype=np.int64))}),
            batch_format="pyarrow")
        .groupby("word").aggregate(Sum("pdf", alias_name="df"))) \
        .to_pandas()
    idf = {w: float(np.log((n_docs - d + 0.5) / (d + 0.5) + 1.0))
           for w, d in zip(df_tbl["word"], df_tbl["df"])}

    # doc length lookup joins back via a second pass over marker rows
    len_map = ds_to_table(rows.map_batches(
        lambda t: t.filter(pc.equal(t["word"], ""))
        .select([key_col, "tf"]), batch_format="pyarrow")).to_pandas() \
        .set_index(key_col)["tf"]

    import ray
    ref = ray.put((idf, len_map))

    def score_partial(batch: pa.Table) -> pa.Table:
        # per-TERM contribution rows: a doc's term rows may get split
        # across map batches, so the per-doc sum happens in ONE global
        # (docs-with-terms)-sized groupby, never per batch
        _idf, _lens = ray.get(ref)
        d = batch.to_pandas()
        tf = d["tf"].to_numpy(dtype=np.float64)
        dl = _lens.reindex(d[key_col]).to_numpy(dtype=np.float64)
        iv = d["word"].map(_idf).to_numpy(dtype=np.float64)
        s = iv * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avglen))
        g = pd.DataFrame({key_col: d[key_col], "ps": s}) \
            .groupby(key_col)["ps"].sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    scores = term_rows.map_batches(score_partial,
                                   batch_format="pyarrow") \
        .groupby(key_col).aggregate(Sum("ps", alias_name="s"))
    top = scores.map_batches(
        lambda t: pa.table({key_col: t[key_col],
                            "score": pc.round(t["s"],
                                              ndigits=round_to)}),
        batch_format="pyarrow") \
        .sort(["score", key_col], descending=[True, False]).limit(k)
    return top.to_pandas()

def clean_lines(ds, key_col: str = "doc_id", text_col: str = "text",
                sep: str = "\n", min_words: int = 3):
    """jusText/Trafilatura-style segment cleaning: split each doc on
    ``sep`` and KEEP segments with ≥ ``min_words`` words, digits ≤ half
    the characters (number rows), and NO nav-separator glyphs
    (``| • » ·`` — Trafilatura's explicit nav patterns; word counts
    alone cannot distinguish 'Home | About | Contact' from prose).
    Emits (key, text_clean, n_lines, n_kept) with kept segments
    rejoined in order — a pure per-batch map (docs are rows; no
    shuffle), all metrics from arrow C++ regex counts."""
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        parts = pc.split_pattern(batch[text_col], pattern=sep)
        n = pc.list_value_length(parts).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        flat = pc.list_flatten(parts)
        words = pc.count_substring_regex(flat, pattern=r"\S+") \
            .to_numpy(zero_copy_only=False)
        digits = pc.count_substring_regex(flat, pattern=r"\d") \
            .to_numpy(zero_copy_only=False)
        chars = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
        nav = pc.count_substring_regex(
            flat, pattern="[|\u2022\u00bb\u00b7]") \
            .to_numpy(zero_copy_only=False)
        keep = (words >= min_words) & (2 * digits <= chars) & (nav == 0)
        doc_idx = np.repeat(np.arange(len(batch)), n)
        n_kept = np.zeros(len(batch), dtype=np.int64)
        np.add.at(n_kept, doc_idx, keep.astype(np.int64))
        lines = flat.to_pandas()
        joined = pd.Series(lines[keep]).groupby(
            doc_idx[keep]).agg(sep.join)
        clean = joined.reindex(range(len(batch))).fillna("")
        return pa.table({
            key_col: batch[key_col],
            "text_clean": pa.array(clean.to_numpy(dtype=object),
                                   type=pa.string()),
            "n_lines": pa.array(n),
            "n_kept": pa.array(n_kept)})

    return ds.map_batches(f, batch_format="pyarrow")


def pmi_collocations(ds, text_col: str = "text", min_count: int = 5,
                     k: int = 20):
    """Top-k PMI collocations: pointwise mutual information
    ln(p(ab) / (p(a)·p(b))) over space-split bigrams, the classic
    collocation-extraction statistic (Church & Hanks 1990).

    Scale shape — two vocabulary-bounded aggregations, zero row-scale
    shuffles:
      1. bigram counts (same within-doc shift-and-join as
         ``top_k_ngrams``) → groupby per distinct bigram;
      2. unigram counts → groupby per distinct word;
      3. rare-bigram filter (count < min_count) BEFORE any join, so
         only the candidate set ever carries attachments;
      4. unigram counts attach to candidates via the size-guarded
         broadcast (Zipf vocabularies are ~MBs) with a bucketed-join
         fallback per side past the byte budget;
      5. PMI floats evaluate the identical expression as the SQL twin;
         top-k orders by (pmi DESC, bigram ASC).
    Empty tokens are KEPT (mirrors SQL string_split semantics)."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    from .relational import broadcast_join, bucketed_hash_join, ds_to_table

    def bigram_partial(batch: pa.Table) -> pa.Table:
        parts = pc.split_pattern(batch[text_col], pattern=" ")
        flat = pc.list_flatten(parts).combine_chunks()
        parent = pc.list_parent_indices(parts).to_numpy(
            zero_copy_only=False)
        if len(flat) < 2:
            return pa.table({"bigram": pa.array([], type=pa.string()),
                             "pcnt": pa.array([], type=pa.int64())})
        a = flat.slice(0, len(flat) - 1)
        b = flat.slice(1, len(flat) - 1)
        joined = pc.binary_join_element_wise(a, b, " ")
        same_doc = parent[:-1] == parent[1:]
        g = pa.table({"bigram": joined.filter(pa.array(same_doc))}) \
            .group_by("bigram").aggregate([([], "count_all")])
        return pa.table({"bigram": g["bigram"],
                         "pcnt": g["count_all"].cast(pa.int64())})

    def unigram_partial(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(pc.split_pattern(batch[text_col],
                                                pattern=" "))
        g = pa.table({"word": flat}).group_by("word") \
            .aggregate([([], "count_all")])
        return pa.table({"word": g["word"],
                         "pcnt": g["count_all"].cast(pa.int64())})

    bg = ds.map_batches(bigram_partial, batch_format="pyarrow") \
        .groupby("bigram").aggregate(Sum("pcnt", alias_name="c_ab")) \
        .materialize()                 # bigram-vocabulary-sized
    ug = ds.map_batches(unigram_partial, batch_format="pyarrow") \
        .groupby("word").aggregate(Sum("pcnt", alias_name="c_w")) \
        .materialize()                 # vocabulary-sized

    from ray.data.aggregate import Sum as _S
    nb = int(bg.aggregate(_S("c_ab", alias_name="s"))["s"])
    nw = int(ug.aggregate(_S("c_w", alias_name="s"))["s"])

    cand = bg.filter(expr=f"c_ab >= {int(min_count)}")

    def split_words(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t["bigram"], pattern=" ",
                                 max_splits=1)
        return t.append_column("w1", pc.list_element(parts, 0)) \
            .append_column("w2", pc.list_element(parts, 1))

    cand = cand.map_batches(split_words, batch_format="pyarrow")

    vocab_bytes = ug.size_bytes() or 0
    u1 = ds_to_table(ug).rename_columns(["w1", "c_a"])
    u2 = ds_to_table(ug).rename_columns(["w2", "c_b"])
    if vocab_bytes <= util.BROADCAST_LIMIT_BYTES:
        joined = broadcast_join(broadcast_join(cand, u1, on="w1"),
                                u2, on="w2")
    else:
        import ray.data as rd
        joined = bucketed_hash_join(
            bucketed_hash_join(cand, rd.from_arrow(u1), on="w1"),
            rd.from_arrow(u2), on="w2")

    def score(t: pa.Table) -> pa.Table:
        c_ab = t["c_ab"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        c_a = t["c_a"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        c_b = t["c_b"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        pmi = np.log((c_ab / nb) / ((c_a / nw) * (c_b / nw)))
        out = pa.table({"bigram": t["bigram"],
                        "c_ab": t["c_ab"].cast(pa.int64()),
                        "pmi": pa.array(pmi, type=pa.float64())})
        return out.sort_by([("pmi", "descending"),
                            ("bigram", "ascending")]).slice(0, k)

    pruned = ds_to_table(joined.map_batches(score,
                                            batch_format="pyarrow"))
    top = pruned.sort_by([("pmi", "descending"),
                          ("bigram", "ascending")]).slice(0, k)
    return top
