"""Training-data operator suite: dedup family, ANN, text analysis,
multimodal plumbing — small deterministic corpora with exact expectations."""
import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from prclz_ray.stages import dedup as dd
from prclz_ray.stages import multimodal, similarity, text, util


def _docs():
    base = [
        "the quick brown fox jumps over the lazy dog again and again",
        "pack my box with five dozen liquor jugs before noon today",
        "sphinx of black quartz judge my vow said the old man",
        "a completely different document about graph theory and duals",
    ]
    rows = []
    for i in range(40):
        t = base[i % 4] + f" filler{i % 4}"
        rows.append({"doc_id": i, "text": t})
    # two exact dups of doc 0's text and one near-dup
    rows.append({"doc_id": 100, "text": rows[0]["text"]})
    rows.append({"doc_id": 101, "text": rows[0]["text"]})
    rows.append({"doc_id": 102, "text": rows[0]["text"] + "!"})
    return rows


def test_exact_dedup_keeps_min_key():
    ds = rd.from_items(_docs()).repartition(4)
    out = dd.exact_dedup(ds).to_pandas()
    # 4 distinct templates × filler variants: texts repeat every 4 ids
    kept = set(out["doc_id"])
    assert 0 in kept and 100 not in kept and 101 not in kept
    # near-dup text (102) differs → survives exact dedup
    assert 102 in kept
    texts = list(out["text"])
    assert len(texts) == len(set(texts))


def test_minhash_lsh_dedup_collapses_near_dups():
    ds = rd.from_items(_docs()).repartition(4)
    kept, comp = dd.minhash_lsh_dedup(ds, jaccard_threshold=0.8)
    ids = set(kept.to_pandas()["doc_id"])
    # exact + near dups of doc 0 collapse to the min key
    assert 0 in ids
    assert not {100, 101, 102} & ids


def test_simhash_finds_exact_dup_pairs():
    ds = rd.from_items(_docs()).repartition(4)
    pairs = dd.simhash_dedup(ds).to_pandas()
    got = {tuple(sorted(p)) for p in zip(pairs["a"], pairs["b"])}
    assert (0, 100) in got and (0, 101) in got


def test_ann_bruteforce_vs_ivf_top1():
    rng = np.random.default_rng(2)
    vecs = rng.standard_normal((300, 16)).astype(np.float32)
    tbl = pa.table({"vec_id": np.arange(300, dtype=np.int64),
                    "embedding": [v.tolist() for v in vecs]})
    queries = vecs[[5, 50, 200]] + 0.001  # near-copies of known rows
    qids = [0, 1, 2]
    ds = rd.from_arrow(tbl).repartition(4)
    bf = similarity.ann_bruteforce(ds, queries, qids, k=3).to_pandas()
    top1 = bf[bf["rank"] == 1].set_index("query_id")["match_id"]
    assert dict(top1) == {0: 5, 1: 50, 2: 200}

    cents = similarity.train_centroids(rd.from_arrow(tbl), n_centroids=8)
    ivf = similarity.ann_ivf(rd.from_arrow(tbl).repartition(4), queries,
                             qids, cents, k=3, nprobe=4).to_pandas()
    ivf1 = ivf[ivf["rank"] == 1].set_index("query_id")["match_id"]
    # IVF with nprobe=half the lists must still find the near-copies
    assert dict(ivf1) == {0: 5, 1: 50, 2: 200}


def test_langid_and_quality_and_tokens():
    rows = [
        {"doc_id": 0, "text": "the quick brown fox and the lazy dog"},
        {"doc_id": 1, "text": "le renard brun et le chien paresseux de la ville"},
        {"doc_id": 2, "text": "short"},
    ]
    ds = rd.from_items(rows)
    lang = ds.map_batches(text.LangId, batch_format="pandas",
                          concurrency=1).to_pandas()
    pred = lang.set_index("doc_id")["lang_pred"]
    assert pred[0] == "en"
    assert pred[1] == "fr"

    q = ds.map_batches(text.QualityScorer, batch_format="pandas",
                       concurrency=1).to_pandas()
    assert (q["q_score"] >= 0).all() and (q["q_score"] <= 1.4).all()
    assert q.set_index("doc_id")["q_score"][2] < q.set_index("doc_id")["q_score"][0]

    tok = ds.map_batches(lambda b: text.token_count_batch(b),
                         batch_format="pyarrow").to_pandas()
    assert tok.set_index("doc_id")["tokens_ws"][0] == 8

    fp = ds.map_batches(lambda b: text.fingerprint_batch(b),
                        batch_format="pyarrow").to_pandas()
    assert fp["fingerprint"].nunique() == 3


def test_multimodal_decode_plumbing():
    tbl = multimodal.synth_media_table(48)
    out = multimodal.decode_pipeline(rd.from_arrow(tbl),
                                     batch_size=16).to_pandas()
    assert len(out) == 48
    assert "features" in out.columns
    # deterministic fake features: same payload → same features
    f0 = np.asarray(out["features"][0])
    assert f0.shape == (16,)
    out2 = multimodal.decode_pipeline(rd.from_arrow(tbl),
                                      batch_size=16).to_pandas()
    m0 = out.set_index("media_id")["features"]
    m2 = out2.set_index("media_id")["features"]
    for mid in out["media_id"][:5]:
        assert np.allclose(np.asarray(m0[mid]), np.asarray(m2[mid]))


def test_minhash_dedup_deterministic_across_parallelism():
    """Same kept set at 2 and 8 partitions (the driver's correctness gate
    compares value hashes, so partitioning must not leak into results)."""
    ids = []
    for parts in (2, 8):
        ds = rd.from_items(_docs()).repartition(parts)
        kept, _ = dd.minhash_lsh_dedup(ds, jaccard_threshold=0.8)
        ids.append(tuple(sorted(kept.to_pandas()["doc_id"])))
    assert ids[0] == ids[1]


def _union_find_labels(edges) -> dict:
    """Reference connected components: {node: min node of its
    component}, by union-find with path halving."""
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        rx, ry = find(e["a"]), find(e["b"])
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    return {k: find(k) for k in list(parent)}


def test_connected_components_min_label_matches_union_find(monkeypatch):
    """The single-pass path, the sharded min-label path (budget 0) and a
    union-find reference agree (chain, pair, self-loop singleton)."""
    edges = [{"a": 1, "b": 2}, {"a": 2, "b": 3}, {"a": 3, "b": 4},
             {"a": 10, "b": 11}, {"a": 20, "b": 20}]
    eds = rd.from_items(edges).repartition(3).map_batches(
        lambda t: t, batch_format="pyarrow")
    lab_prop = dd.connected_components(eds).to_pandas()
    # force the past-guard BSP join leg too (limit 0 -> no single pass)
    monkeypatch.setattr(util, "BROADCAST_LIMIT_BYTES", 0)
    lab_bsp = dd.connected_components(eds).to_pandas()
    a = {int(r.node): int(r.label) for r in lab_prop.itertuples()}
    b = _union_find_labels(edges)
    c = {int(r.node): int(r.label) for r in lab_bsp.itertuples()}
    assert a == b == c
    assert a[4] == 1 and a[11] == 10 and a[20] == 20


def test_embedding_banded_lsh_finds_seeded_copies():
    """Banded hyperplane LSH: exact vector copies share every band bucket
    (recall 1 on copies); no false pairs among random 64-dim vectors at a
    0.95 threshold."""
    rng = np.random.default_rng(5)
    vecs = rng.standard_normal((200, 64)).astype(np.float32)
    rows = [{"vec_id": i, "embedding": vecs[i]} for i in range(200)]
    rows += [{"vec_id": 1000 + i, "embedding": vecs[i]} for i in range(5)]
    ds = rd.from_items(rows).repartition(4)
    out = dd.embedding_dedup_pairs(ds, cosine_threshold=0.95).to_pandas()
    got = {tuple(sorted(p)) for p in zip(out["a"], out["b"])}
    assert got == {(i, 1000 + i) for i in range(5)}
    assert (out["cosine"] >= 0.95).all()


def test_ann_ivf_recall_floor():
    from prclz_ray.pipelines.queries import q_ann_ivf_recall
    df = q_ann_ivf_recall("/root/testdata/sf0.001")
    assert len(df) == 3
    assert df["recall_at_5"].mean() >= 0.8 - 1e-9


def test_multimodal_real_decode():
    """BMP/WAV/PNG decode is REAL (stdlib + numpy): roundtrips exact, the
    decode stage flags codec-bound payloads (video) as fallback."""
    from prclz_ray.stages import multimodal as M
    rng = np.random.default_rng(3)
    px = rng.integers(0, 256, (9, 14, 3), dtype=np.uint8)
    assert np.array_equal(M.decode_bmp(M.encode_bmp(px)), px)
    s = np.sin(2 * np.pi * 200 * np.arange(1600) / 8000)
    dec, rate = M.decode_wav(M.encode_wav(s))
    assert rate == 8000 and np.abs(dec - s).max() < 1e-3
    import struct, zlib
    w, h = 6, 3
    px2 = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    raw = b"".join(b"\x00" + px2[y].tobytes() for y in range(h))
    def chunk(cid, body):
        return (struct.pack(">I", len(body)) + cid + body
                + struct.pack(">I", zlib.crc32(cid + body)))
    png = (b"\x89PNG\r\n\x1a\n"
           + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
           + chunk(b"IDAT", zlib.compress(raw)) + chunk(b"IEND", b""))
    assert np.array_equal(M.decode_png(png), px2)

    out = M.decode_pipeline(rd.from_arrow(M.synth_media_table(24)),
                            batch_size=8).to_pandas()
    by_kind = out.groupby("kind")["decoded"].all()
    assert bool(by_kind["image"]) and bool(by_kind["audio"])
    assert not out.loc[out["kind"] == "video", "decoded"].any()
    # image resize kernel
    big = rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)
    small = M.resize_nearest(big, 8, 8)
    assert small.shape == (8, 8, 3)
    assert np.array_equal(small[0, 0], big[0, 0])


def test_redact_pii_chain():
    t = pa.table({"text": pa.array([
        "mail a@b.co and c.d@e.org, call 415-555-0042, from 10.0.3.25",
        "no pii here",
    ])})
    out = text.redact_pii_batch(t)
    assert out.column("n_email").to_pylist() == [2, 0]
    assert out.column("n_phone").to_pylist() == [1, 0]
    assert out.column("n_ipv4").to_pylist() == [1, 0]
    red = out.column("text_redacted").to_pylist()
    assert red[0] == "mail <EMAIL> and <EMAIL>, call <PHONE>, from <IP>"
    assert red[1] == "no pii here"


def test_canonicalize_urls_edge_cases():
    from prclz_ray.stages.urls import canonicalize_urls
    raw = pa.array([
        "HTTPS://EXAMPLE.org/doc/1/",                       # host case + slash
        "https://example.org/doc/1?utm_source=a&utm_med=b",  # utm-only query
        "https://example.org/doc/1?utm_source=a&id=7",       # utm first, keep id
        "https://example.org/doc/1#frag",                    # fragment
        "https://example.org/",                              # root slash: kept
        "no-scheme/path/",                                   # passthrough host step
        "https://example.org/doc/1?id=7&utm_source=a",       # utm last
    ])
    got = canonicalize_urls(raw).to_pylist()
    assert got == [
        "https://example.org/doc/1",
        "https://example.org/doc/1",
        "https://example.org/doc/1?id=7",
        "https://example.org/doc/1",
        "https://example.org/",
        "no-scheme/path/",   # no authority: slash rule doesn't apply
        "https://example.org/doc/1?id=7",
    ]


def test_paragraph_dedup_stats():
    rows = [
        {"doc_id": 0, "text": "unique zero\n\nBOILER\n\nBOILER"},
        {"doc_id": 1, "text": "unique one\n\nBOILER"},
        {"doc_id": 2, "text": "unique two"},
    ]
    out = dd.paragraph_dedup_stats(rd.from_items(rows).repartition(2)) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(out.n_paras) == [3, 2, 1]
    # BOILER appears 3x corpus-wide -> both of doc 0's copies and doc 1's
    # single copy are flagged; unique body paragraphs never are
    assert list(out.n_dup_paras) == [2, 1, 0]
    assert list(out.dup_frac) == [0.6667, 0.5, 0.0]


def test_decontaminate_ngrams_flags_shared_ngrams():
    bench = [{"doc_id": 100, "text": "the secret eval answer is forty two"}]
    train = [
        # carries the bench 7-gram's 5-gram windows -> contaminated
        {"doc_id": 0, "text": "intro words the secret eval answer is forty"},
        # no 5-gram overlap with bench
        {"doc_id": 1, "text": "completely different training text with many words"},
        # too short for any 5-gram -> dropped from the profile
        {"doc_id": 2, "text": "tiny doc"},
    ]
    out = dd.decontaminate_ngrams(
        rd.from_items(train).repartition(2), rd.from_items(bench),
        n=5).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(out.doc_id) == [0, 1]
    # doc 0: 8 tokens -> 4 windows; 3 of them ("the secret eval answer
    # is", "secret eval answer is forty" and NOT crossing) are bench
    # 5-grams: bench has 7 tokens -> 3 windows; doc 0 contains windows
    # starting at "the","secret" -> 2 matches
    # doc 0: 8 tokens -> 4 windows; doc 1: 7 tokens -> 3 windows
    assert list(out.n_ngrams) == [4, 3]
    assert list(out.n_contam) == [2, 0]
    assert list(out.contam_frac) == [0.5, 0.0]


def test_logreg_train_matches_numpy_reference():
    import numpy as np

    from prclz_ray.stages import ml

    rng = np.random.default_rng(5)
    n = 400
    x1 = rng.normal(0, 1, n)
    x2 = rng.normal(0, 1, n)
    y = ((1.5 * x1 - x2 + rng.normal(0, 0.3, n)) > 0).astype(np.float64)

    def ref(epochs=5, lr=0.5, dp=9):
        w = np.zeros(2)
        b = 0.0
        X = np.column_stack([x1, x2])
        for _ in range(epochs):
            r = 1.0 / (1.0 + np.exp(-(b + X @ w))) - y
            w = np.round(w - lr * (X.T @ r) / n, dp)
            b = round(b - lr * r.sum() / n, dp)
        return b, w

    b_ref, w_ref = ref()
    rows = [{"x1": float(a), "x2": float(c), "label": float(l)}
            for a, c, l in zip(x1, x2, y)]
    for parts in (2, 8):
        fit = ml.logreg_train(rd.from_items(rows).repartition(parts),
                              ["x1", "x2"], "label", epochs=5, lr=0.5)
        assert fit["n"] == n
        assert fit["bias"] == b_ref
        assert fit["weights"] == list(w_ref)
    # the fit separates: scored training accuracy well above chance
    scored = ml.logreg_score(
        rd.from_items(rows), ["x1", "x2"],
        weights=fit["weights"], bias=fit["bias"]).to_pandas()
    acc = ((scored.score > 0.5).astype(float) == scored.label).mean()
    assert acc > 0.85


def test_bpe_train_matches_reference():
    import collections

    texts = ["low lower lowest low low",
             "new newer newest new newer",
             "wider wide widest low new"]

    # single-process reference BPE (Sennrich et al.), same tie-break
    def ref_bpe(texts, k):
        wc = collections.Counter(
            w for t in texts for w in t.split(" ") if w)
        vocab = {tuple(w): f for w, f in wc.items()}
        merges = []
        for rank in range(k):
            pairs = collections.Counter()
            for syms, f in vocab.items():
                for a, b in zip(syms, syms[1:]):
                    pairs[(a, b)] += f
            if not pairs:
                break
            (l, r), n = min(pairs.items(),
                            key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
            merges.append((rank, l, r, n))
            nv = {}
            for syms, f in vocab.items():
                res, i = [], 0
                while i < len(syms):
                    if i + 1 < len(syms) and syms[i] == l \
                            and syms[i + 1] == r:
                        res.append(l + r)
                        i += 2
                    else:
                        res.append(syms[i])
                        i += 1
                nv[tuple(res)] = f
            vocab = nv
        return merges

    want = ref_bpe(texts, 6)
    assert len(want) == 6 and want[0][3] >= want[1][3]
    for parts in (2, 8):
        ds = rd.from_items([{"text": t} for t in texts]).repartition(parts)
        got = text.bpe_train(ds, num_merges=6).to_pandas()
        assert list(zip(got["rank"], got.left, got.right, got.freq)) == want


def test_compression_ratio_ordering():
    import string

    import numpy as np

    rng = np.random.default_rng(3)
    noise = "".join(rng.choice(list(string.ascii_letters + string.digits
                                    + string.punctuation), 2000))
    prose = ("the quick brown fox jumps over the lazy dog and then "
             "wanders through the quiet forest looking for berries ") * 20
    repetitive = "spam " * 400
    t = pa.table({"doc_id": pa.array([0, 1, 2], type=pa.int64()),
                  "text": pa.array([repetitive, prose, noise])})
    out = text.compression_ratio_batch(t).to_pandas()
    r_rep, r_prose, r_noise = out.compression_ratio
    assert r_rep < r_prose < r_noise
    assert r_rep < 0.05 and r_noise > 0.7
    assert (out.raw_bytes >= out.comp_bytes).iloc[0]
    # deterministic regardless of batching (pure map)
    out2 = text.compression_ratio_batch(t.slice(1, 2)).to_pandas()
    assert out2.compression_ratio.iloc[0] == r_prose


def test_misra_gries_bounds_and_exactness():
    import collections

    import numpy as np

    from prclz_ray.stages import sketches

    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(60)]
    # zipf-ish skew: w0 dominates
    weights = 1.0 / np.arange(1, 61) ** 1.5
    weights /= weights.sum()
    texts = [" ".join(rng.choice(vocab, 30, p=weights)) for _ in range(40)]
    truth = collections.Counter(w for t in texts for w in t.split(" "))
    total = sum(truth.values())
    ds = rd.from_items([{"text": t} for t in texts]).repartition(4)

    cap = 8
    summ = sketches.mg_word_summary(ds, capacity=cap).to_pandas()
    est = dict(zip(summ.word, summ.n))
    bound = total / (cap + 1)
    # every estimate is a lower bound within N/(cap+1) of the truth
    for w, e in est.items():
        assert e <= truth[w]
        assert truth[w] - e <= bound, (w, truth[w], e, bound)
    # every word with true count above the bound must survive
    for w, c in truth.items():
        if c > bound:
            assert w in est, (w, c, bound)
    # capacity >= vocabulary: exact, any partitioning
    for parts in (2, 8):
        full = sketches.mg_word_summary(
            rd.from_items([{"text": t} for t in texts]).repartition(parts),
            capacity=1024).to_pandas()
        assert dict(zip(full.word, full.n)) == dict(truth)
    top = sketches.heavy_hitter_words(ds, k=5, capacity=1024).to_pandas()
    want = sorted(truth.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    assert list(zip(top.word, top.n)) == want


def test_domain_boilerplate_thresholds():
    rows = []
    # source A: 4 docs; "FOOT" in 2 of them (50% >= 30%, >= 2 docs ->
    # boilerplate); "ONCE" in 1 doc (fails min_docs)
    for i in range(4):
        t = f"body a{i}" + ("\n\nFOOT" if i < 2 else "") \
            + ("\n\nONCE" if i == 0 else "")
        rows.append({"doc_id": i, "source": "A", "text": t})
    # source B: 10 docs; "FOOT" in 2 (20% < 30% -> not boilerplate)
    for i in range(10):
        t = f"body b{i}" + ("\n\nFOOT" if i < 2 else "")
        rows.append({"doc_id": 100 + i, "source": "B", "text": t})
    out = dd.domain_boilerplate_stats(
        rd.from_items(rows).repartition(3), min_frac=0.3, min_docs=2) \
        .to_pandas().sort_values("source").reset_index(drop=True)
    assert list(out.source) == ["A", "B"]
    assert list(out.n_docs) == [4, 10]
    assert list(out.n_boiler) == [1, 0]
    # a doc repeating the footer TWICE still counts once (distinct per doc)
    rows[0]["text"] += "\n\nFOOT"
    out2 = dd.domain_boilerplate_stats(
        rd.from_items(rows), min_frac=0.6, min_docs=2).to_pandas() \
        .sort_values("source").reset_index(drop=True)
    assert list(out2.n_boiler) == [0, 0]  # 2/4 = 50% < 60%


def test_repetition_stats_batch():
    t = pa.table({"doc_id": pa.array([0, 1, 2], type=pa.int64()),
                  "text": pa.array(["a b a b a c", "x", "q r s t"])})
    out = text.repetition_stats_batch(t).to_pandas()
    assert list(out.n_words) == [6, 1, 4]
    assert list(out.top_word_n) == [3, 1, 1]      # 'a' x3
    assert list(out.top_bigram_n) == [2, 0, 1]    # 'a b' x2
    assert list(out.top_word_frac) == [0.5, 1.0, 0.25]
    assert list(out.top_bigram_frac) == [0.4, 0.0, 0.3333]


def test_grouped_quantile_disc_exact_vs_duckdb():
    """Histogram-selection quantiles equal DuckDB quantile_disc exactly,
    including point-mass groups, singletons, and skewed distributions."""
    import duckdb
    from prclz_ray.stages import relational
    rng = np.random.default_rng(9)
    keys, vals = [], []
    # group 0: lognormal skew; group 1: point mass; group 2: singleton;
    # group 3: two values; group 4: integers with heavy ties
    keys += [0] * 500; vals += list(rng.lognormal(0, 2, 500))
    keys += [1] * 100; vals += [3.25] * 100
    keys += [2]; vals += [7.0]
    keys += [3, 3]; vals += [1.0, 2.0]
    keys += [4] * 200; vals += list(rng.integers(0, 5, 200).astype(float))
    tbl = pa.table({"k": pa.array(keys, type=pa.int64()),
                    "v": pa.array(vals, type=pa.float64())})
    ds = rd.from_arrow(tbl).repartition(6)
    got = relational.grouped_quantile_disc(ds, "k", "v",
                                           qs=[0.25, 0.5, 0.75], bins=32)
    want = duckdb.connect().execute(
        "SELECT k, quantile_disc(v, 0.25) p25, quantile_disc(v, 0.5) p50, "
        "quantile_disc(v, 0.75) p75 FROM tbl GROUP BY k ORDER BY k") \
        .fetchdf()
    assert np.allclose(got[["p25", "p50", "p75"]].to_numpy(),
                       want[["p25", "p50", "p75"]].to_numpy(), rtol=0, atol=0)


def test_sessionize_gap_semantics():
    from prclz_ray.stages import relational
    base = np.datetime64("2024-01-01T00:00:00", "us")
    m = np.timedelta64(60, "s")
    rows = [
        # user 1: 3 events close, gap, 1 event  -> sessions of 3 and 1
        {"user_id": 1, "ts": base},
        {"user_id": 1, "ts": base + 5 * m},
        {"user_id": 1, "ts": base + 9 * m},
        {"user_id": 1, "ts": base + 100 * m},
        # user 2: single event
        {"user_id": 2, "ts": base + 2 * m},
        # user 3: two events exactly at the gap boundary (gap == 600s:
        # NOT > gap -> same session)
        {"user_id": 3, "ts": base},
        {"user_id": 3, "ts": base + 10 * m},
    ]
    out = relational.sessionize(rd.from_items(rows).repartition(3),
                                "user_id", "ts", gap_sec=600) \
        .to_pandas().sort_values(["user_id", "session_idx"]) \
        .reset_index(drop=True)
    assert list(out.user_id) == [1, 1, 2, 3]
    assert list(out.session_idx) == [1, 2, 1, 1]
    assert list(out.n_events) == [3, 1, 1, 2]
    assert list(out.duration_sec) == [540, 0, 0, 600]


def test_normalize_and_top_words():
    t = pa.table({"doc_id": pa.array([0, 1], type=pa.int64()),
                  "text": pa.array(["  Café\t du  Monde ", "plain"])})
    out = text.normalize_text_batch(t)
    assert out.column("text_norm").to_pylist() == ["café du monde", "plain"]
    assert out.column("changed").to_pylist() == [1, 0]

    rows = [{"doc_id": i, "text": "b a a c b a"} for i in range(3)]
    top = text.top_k_words(rd.from_items(rows).repartition(2), k=2).to_pandas()
    assert list(top.word) == ["a", "b"] and list(top.n) == [9, 6]


def test_paragraph_dedup_bucketed_fallback_path(monkeypatch):
    """BROADCAST_LIMIT_BYTES=0 forces the bucketed-join marking path; it
    must agree with the broadcast path exactly."""
    rows = [
        {"doc_id": 0, "text": "unique zero\n\nBOILER\n\nBOILER"},
        {"doc_id": 1, "text": "unique one\n\nBOILER"},
        {"doc_id": 2, "text": "unique two"},
    ]
    monkeypatch.setattr(util, "BROADCAST_LIMIT_BYTES", 0)
    out = dd.paragraph_dedup_stats(rd.from_items(rows).repartition(2)) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(out.n_paras) == [3, 2, 1]
    assert list(out.n_dup_paras) == [2, 1, 0]
    assert list(out.dup_frac) == [0.6667, 0.5, 0.0]


def test_hll_approx_distinct_error_and_determinism():
    from prclz_ray.stages import sketches
    rng = np.random.default_rng(41)
    keys = rng.integers(0, 80_000, 200_000)  # ~73k distinct expected
    exact = len(np.unique(keys))
    tbl = pa.table({"k": pa.array(keys, type=pa.int64())})
    ests = []
    for parts in (2, 9):
        out = sketches.approx_distinct(rd.from_arrow(tbl).repartition(parts),
                                       "k")
        ests.append(out.column("approx_distinct")[0].as_py())
    # max-merge of registers is partitioning-invariant
    assert ests[0] == ests[1]
    assert abs(ests[0] - exact) / exact < 0.02
    # small-cardinality linear-counting regime is near-exact
    small = pa.table({"k": pa.array(np.arange(150), type=pa.int64())})
    est = sketches.approx_distinct(rd.from_arrow(small), "k") \
        .column("approx_distinct")[0].as_py()
    assert abs(est - 150) <= 2


def test_rare_word_stats_both_paths(monkeypatch):
    rows = [
        {"doc_id": 0, "text": "common common unique0"},
        {"doc_id": 1, "text": "common unique1 unique1"},  # types: common, unique1
        {"doc_id": 2, "text": "common shared"},
        {"doc_id": 3, "text": "shared common"},
    ]
    # df: common=4 (>2 common-head), unique0=1, unique1=1, shared=2
    for limit in (64 << 20, 0):  # broadcast path, then bucketed fallback
        monkeypatch.setattr(util, "BROADCAST_LIMIT_BYTES", limit)
        out = text.rare_word_stats(rd.from_items(rows).repartition(2),
                                   max_df=2) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert list(out.n_types) == [2, 2, 2, 2]
        assert list(out.n_rare_types) == [1, 1, 1, 1]
        assert list(out.rare_frac) == [0.5] * 4


def _clustered_vecs(n_per=30, k=4, dim=8, seed=5):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((k, dim)) * 4
    rows = []
    for i in range(n_per * k):
        v = centers[i % k] + rng.standard_normal(dim) * 0.1
        rows.append({"vec_id": i, "embedding": v.astype(np.float32).tolist()})
    return rows


def test_kmeans_fit_objective_and_partition_invariance():
    rows = _clustered_vecs()
    ds2 = rd.from_items(rows).repartition(2)
    ds8 = rd.from_items(rows).repartition(8)
    C2, hist = similarity.kmeans_fit(ds2, n_clusters=4, iters=6, seed=3)
    # spherical k-means objective (mean max-cosine) is non-decreasing
    assert all(b >= a - 1e-12 for a, b in zip(hist, hist[1:]))
    assert np.allclose(np.linalg.norm(C2, axis=1), 1.0)
    # block layout changes the fp summation grouping only: centroids agree
    C8, _ = similarity.kmeans_fit(ds8, n_clusters=4, iters=6, seed=3)
    assert np.allclose(C2, C8, atol=1e-9)
    # with well-separated synthetic clusters the assignment recovers them
    a = similarity.kmeans_assign(rd.from_items(rows), C2).to_pandas()
    a["true"] = a["vec_id"] % 4
    # each true cluster maps to exactly one learned cluster
    g = a.groupby("true")["cluster"].nunique()
    assert (g == 1).all()
    assert a["cluster"].nunique() == 4


def test_semantic_dup_pairs_finds_copies_within_cluster():
    rows = _clustered_vecs()
    # exact copies of vec 0 and 1; a scaled copy of 2 (cosine 1 too)
    rows.append({"vec_id": 500, "embedding": rows[0]["embedding"]})
    rows.append({"vec_id": 501, "embedding": rows[1]["embedding"]})
    rows.append({"vec_id": 502,
                 "embedding": [2 * x for x in rows[2]["embedding"]]})
    ds = rd.from_items(rows).repartition(4)
    C = similarity.fixed_centroids(4, 8, seed=7)
    out = dd.semantic_dup_pairs(ds, C, cosine_threshold=0.999).to_pandas()
    got = {(r.a, r.b) for r in out.itertuples()}
    assert {(0, 500), (1, 501), (2, 502)} <= got
    assert (out["a"] < out["b"]).all()
    assert (out["cosine"] >= 0.999).all()
    # cluster column matches the assigner for the a-side
    assign = similarity.kmeans_assign(rd.from_items(rows), C).to_pandas() \
        .set_index("vec_id")["cluster"]
    for r in out.itertuples():
        assert r.cluster == assign[r.a] == assign[r.b]


def test_top_k_ngrams_counts_and_boundaries():
    rows = [{"doc_id": 0, "text": "a b c"},
            {"doc_id": 1, "text": "a b"},
            {"doc_id": 2, "text": "b"},
            {"doc_id": 3, "text": "c a b"}]
    out = text.top_k_ngrams(rd.from_items(rows).repartition(3),
                            n=2, k=10).to_pandas()
    got = dict(zip(out["gram"], out["n"]))
    # "a b" appears in docs 0,1,3; "b c" only doc 0; no cross-doc "b a"
    assert got == {"a b": 3, "b c": 1, "c a": 1}
    tri = text.top_k_ngrams(rd.from_items(rows), n=3, k=10).to_pandas()
    assert dict(zip(tri["gram"], tri["n"])) == {"a b c": 1, "c a b": 1}


def test_tfidf_top_terms_matches_reference():
    rows = [{"doc_id": 0, "text": "x x y common"},
            {"doc_id": 1, "text": "y z common"},
            {"doc_id": 2, "text": "z z z common"},
            {"doc_id": 3, "text": "w common"}]
    out = text.tfidf_top_terms(rd.from_items(rows).repartition(2),
                               top_n=2).to_pandas()
    n = 4
    import math
    # doc 0: x tf=2 df=1 -> 2*ln(4); y tf=1 df=2 -> ln(2); common ln(1)=0
    d0 = out[out.doc_id == 0].sort_values("rank")
    assert list(d0["word"]) == ["x", "y"]
    assert abs(d0["score"].iloc[0] - round(2 * math.log(4), 4)) < 1e-9
    # doc 3: w tf=1 df=1 -> ln(4); common 0 but still rank 2 (tie w/ none)
    d3 = out[out.doc_id == 3].sort_values("rank")
    assert list(d3["word"]) == ["w", "common"]
    # every doc emits exactly top_n rows (enough terms exist)
    assert (out.groupby("doc_id").size() == 2).all()


def test_posting_lists_exact_and_bounded():
    rows = [{"doc_id": 3, "text": "q r"},
            {"doc_id": 1, "text": "q r r"},
            {"doc_id": 2, "text": "q only2"},
            {"doc_id": 4, "text": "q"}]
    out = text.posting_lists(rd.from_items(rows).repartition(2),
                             min_df=2, max_df=3).to_pandas()
    got = {r.word: (r.df, r.postings) for r in out.itertuples()}
    # q has df=4 > max_df -> excluded; only2/r as expected
    assert "q" not in got and "only2" not in got
    assert got["r"] == (2, "1,3")


def test_stratified_sample_rates_and_determinism():
    import pandas as pd

    from prclz_ray.stages import relational

    df = pd.DataFrame({"k": np.arange(1000, dtype=np.int64),
                       "s": ["a" if i % 2 else "b" for i in range(1000)]})
    ds = rd.from_pandas(df).repartition(4)
    out = relational.stratified_sample(
        ds, key_col="k", strata_col="s",
        rates_ppm={"a": 1_000_000}, default_ppm=0).to_pandas()
    # stratum a fully kept, stratum b (default 0) fully dropped
    assert set(out["s"]) == {"a"} and len(out) == 500
    # intermediate rate equals deterministic_sample restricted to stratum
    mid = relational.stratified_sample(
        ds, key_col="k", strata_col="s",
        rates_ppm={"a": 200_000}, default_ppm=0).to_pandas()
    ref = relational.deterministic_sample(
        ds.filter(expr="s == 'a'"), key_col="k",
        rate_ppm=200_000).to_pandas()
    assert sorted(mid["k"]) == sorted(ref["k"])


def test_extract_regex_field_nulls_and_types():
    rows = [{"id": 0, "props": '{"k": 42}'},
            {"id": 1, "props": '{"k":7}'},
            {"id": 2, "props": '{"other": 1}'}]
    out = text.extract_regex_field(
        rd.from_items(rows), col="props", pattern=r'"k":\s*(?P<k>\d+)',
        out_col="k", cast_to=pa.int64()).to_pandas().sort_values("id")
    assert out["k"].tolist()[:2] == [42, 7]
    assert pd.isna(out["k"].iloc[2])  # non-matching row -> null, not error


def test_duplicate_span_stats_seeded_overlap():
    boiler = "COPYRIGHT NOTICE ALL RIGHTS RESERVED PLEASE DO NOT COPY"
    rows = [
        {"doc_id": 0, "text": "unique prose alpha " * 5 + boiler},
        {"doc_id": 1, "text": "different words beta " * 5 + boiler},
        {"doc_id": 2, "text": "totally fresh gamma content nothing shared here at all ok"},
        {"doc_id": 3, "text": "tiny"},  # shorter than k -> 1 whole-text span
        {"doc_id": 4, "text": "tiny"},  # exact short dup of doc 3
    ]
    # stride 1 = every position (the exact Lee-et-al semantics; larger
    # strides only see same-phase matches)
    out = dd.duplicate_span_stats(
        rd.from_items(rows).repartition(3), k=32, stride=1) \
        .to_pandas().set_index("doc_id").sort_index()
    # docs 0/1 share the boilerplate tail: both have dup spans; doc 2 none
    assert out.loc[0, "n_dup_spans"] >= 24  # 55-char shared tail, k=32
    assert out.loc[1, "n_dup_spans"] >= 24
    assert out.loc[2, "n_dup_spans"] == 0
    # short docs: exactly one whole-text span, duplicated across 3 & 4
    assert out.loc[3, "n_spans"] == 1 and out.loc[3, "dup_frac"] == 1.0
    assert out.loc[4, "n_spans"] == 1 and out.loc[4, "dup_frac"] == 1.0
    # span-count arithmetic at stride 8: floor((len-k)/stride)+1
    ln = len(rows[2]["text"])
    out8 = dd.duplicate_span_stats(rd.from_items(rows), k=32, stride=8) \
        .to_pandas().set_index("doc_id")
    assert out8.loc[2, "n_spans"] == (ln - 32) // 8 + 1
    # the repeated prefix of doc 0 ("unique prose alpha " x5) duplicates
    # within the doc itself at stride 1
    assert out.loc[0, "n_dup_spans"] > 24


def test_ngram_diversity_repetitive_vs_diverse():
    rows = [
        {"doc_id": 0, "text": "abababababab"},      # period 2: 2 distinct 4-grams
        {"doc_id": 1, "text": "abcdefghijkl"},      # all distinct
        {"doc_id": 2, "text": "xy"},                # shorter than k
    ]
    out = text.ngram_diversity_stats(
        rd.from_items(rows).repartition(2), k=4).to_pandas() \
        .set_index("doc_id").sort_index()
    assert out.loc[0, "n_grams"] == 9 and out.loc[0, "n_distinct"] == 2
    assert out.loc[1, "n_grams"] == 9 and out.loc[1, "n_distinct"] == 9
    assert out.loc[1, "distinct_frac"] == 1.0
    assert out.loc[2, "n_grams"] == 1 and out.loc[2, "distinct_frac"] == 1.0


def test_media_dup_pairs_finds_seeded_payload_copies():
    from prclz_ray.pipelines.queries import q_media_dup_pairs
    out = q_media_dup_pairs("/root/testdata/sf0.001")
    got = {(a, b) for a, b in zip(out["a"], out["b"])}
    # identical payloads decode to identical features -> all 10 pairs
    assert {(i, 1000 + i) for i in range(10)} <= got
    # no cross-media false pairs at the 0.9999 threshold except possible
    # same-frequency audio synth collisions; every pair must be exact
    assert (out["cosine"] >= 0.9999).all()


def test_corpus_filter_decision_mixes_and_reasons():
    from prclz_ray.pipelines.queries import q_corpus_filter_decision
    out = q_corpus_filter_decision("/root/testdata/sf0.001")
    assert set(out.columns) == {"doc_id", "lang_pred", "tokens_ws",
                                "top_word_frac", "keep", "reason"}
    # the decision is non-trivial on the synthetic corpus: both kept and
    # dropped docs exist, and every dropped doc carries a reason bit
    assert 0 < out["keep"].sum() < len(out)
    dropped = out[out["keep"] == 0]
    assert (dropped["reason"] > 0).all()
    kept = out[out["keep"] == 1]
    assert (kept["tokens_ws"] >= 20).all()
    assert (kept["top_word_frac"] <= 0.13).all()


def test_nb_predict_recovers_class_vocabulary():
    """NB trained on a two-class corpus with disjoint vocabularies must
    predict every doc's own class, at 2 parallelisms."""
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import ml

    rows = []
    for i in range(40):
        w = ["apfel", "birne", "kirsche"] if i % 2 else \
            ["apple", "pear", "cherry"]
        rows.append({"doc_id": i, "lang": "de" if i % 2 else "en",
                     "text": " ".join(w * (2 + i % 3))})
    df = pd.DataFrame(rows)
    for parts in (2, 7):
        ds = rd.from_pandas(df).repartition(parts)
        model = ml.nb_train(ds, text_col="text", label_col="lang")
        assert model["vocab"] == 6 and model["n_docs"] == 40
        out = ml.nb_predict(ds, model).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        assert out.pred_label.tolist() == df.lang.tolist()
        assert out.n_tokens.tolist() == \
            [len(t.split(" ")) for t in df.text]


def test_bigram_lm_broadcast_and_join_paths_agree(monkeypatch):
    """Forcing BROADCAST_LIMIT_BYTES=0 must take the bucketed-join
    fallback and produce identical scores, including <2-token docs."""
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import text as tx

    rng = np.random.default_rng(3)
    docs = pd.DataFrame({
        "doc_id": np.arange(60, dtype=np.int64),
        "text": [" ".join(rng.choice(
            ["the", "cat", "sat", "on", "mat", "dog"], 1 + i % 9))
            for i in range(60)],
    })
    ds = rd.from_pandas(docs).repartition(4)
    a = tx.bigram_lm_scores(ds).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    monkeypatch.setattr(util, "BROADCAST_LIMIT_BYTES", 0)
    b = tx.bigram_lm_scores(ds).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert a.doc_id.tolist() == b.doc_id.tolist()
    assert a.n_bigrams.tolist() == b.n_bigrams.tolist()
    assert a.nll.tolist() == b.nll.tolist()
    # single-token docs score (0, 0.0); fluent repeats score lower nll
    # than the corpus max
    ones = docs.text.str.count(" ") == 0
    assert (a[ones.to_numpy()].n_bigrams == 0).all()
    assert (a.nll >= 0).all()


def test_char_entropy_known_values():
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import text as tx

    df = pd.DataFrame({"doc_id": [0, 1, 2, 3],
                       "text": ["aaaa", "ab", "abcd", ""]})
    out = rd.from_pandas(df).repartition(2) \
        .map_batches(tx.char_entropy_batch, batch_format="pyarrow") \
        .to_pandas().sort_values("doc_id")
    assert out.entropy.tolist() == [0.0, 1.0, 2.0, 0.0]


def test_chunk_reassemble_roundtrip_and_overlap():
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import text as tx

    rng = np.random.default_rng(5)
    docs = pd.DataFrame({
        "doc_id": np.arange(50, dtype=np.int64),
        "text": [" ".join(rng.choice(["a", "bb", "ccc"], 1 + i % 40))
                 for i in range(50)],
    })
    ds = rd.from_pandas(docs).repartition(4)
    # zero-overlap roundtrip: reassembled text byte-equals the original
    ch = tx.chunk_documents(ds, chunk_tokens=7, overlap_tokens=0)
    back = tx.reassemble_chunks(ch).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert back.text.tolist() == docs.text.tolist()
    # overlap: consecutive chunks share exactly `overlap` tokens and
    # every token is covered in order
    ch2 = tx.chunk_documents(ds, chunk_tokens=8, overlap_tokens=3) \
        .to_pandas().sort_values(["doc_id", "chunk_idx"])
    for did, g in ch2.groupby("doc_id"):
        toks = docs.text[did].split(" ")
        covered = []
        for i, row in enumerate(g.itertuples()):
            ct = row.chunk_text.split(" ")
            assert len(ct) == row.n_tokens
            start = i * 5  # stride = 8 - 3
            assert ct == toks[start:start + 8]
            covered = covered[:start] + ct
        assert covered == toks


def test_length_bucket_batches_props():
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import relational

    rng = np.random.default_rng(9)
    df = pd.DataFrame({"doc_id": np.arange(400, dtype=np.int64),
                       "n": rng.integers(1, 300, 400).astype(np.int64)})
    outs = []
    for parts in (2, 8):
        out = relational.length_bucket_batches(
            rd.from_pandas(df).repartition(parts), id_col="doc_id",
            len_col="n", batch_size=16).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        outs.append(out)
    a, b = outs
    assert a.equals(b)  # partition invariance
    exp_lb = np.floor(np.log2(df.n.to_numpy())).astype(np.int64)
    assert a.sort_values("doc_id").len_bucket.tolist() == exp_lb.tolist()
    # within each bucket: batch ids are 0..k, each full batch has 16 rows
    for lb, g in a.groupby("len_bucket"):
        sizes = g.groupby("batch_idx").size()
        assert sorted(sizes.index) == list(range(len(sizes)))
        assert (sizes.iloc[:-1] == 16).all() if len(sizes) > 1 else True
        # batch order follows doc order
        gg = g.sort_values("doc_id")
        assert (np.diff(gg.batch_idx.to_numpy()) >= 0).all()


def test_geohash_known_vectors_and_prefix():
    from prclz_ray.index.geohash import geohash_encode

    lon = np.array([-5.6, 13.361389, -0.1278, 151.2093])
    lat = np.array([42.6, 38.115556, 51.5074, -33.8688])
    assert geohash_encode(lon, lat, 5).tolist() == \
        ["ezs42", "sqc8b", "gcpvj", "r3gx2"]
    g8 = geohash_encode(lon, lat, 8)
    g4 = geohash_encode(lon, lat, 4)
    assert [g[:4] for g in g8] == g4.tolist()  # prefix-hierarchical
    # poles / antimeridian clip into the last cell, no overflow
    assert geohash_encode(np.array([180.0]), np.array([90.0]), 6) \
        .tolist() == ["zzzzzz"]
    assert geohash_encode(np.array([-180.0]), np.array([-90.0]), 6) \
        .tolist() == ["000000"]


def test_nb_predict_oov_tokens_use_smoothed_default():
    """Scoring docs containing words absent from training must use the
    per-class add-1 default, not crash or skew: an all-OOV doc falls
    back to the prior (majority class wins)."""
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import ml

    # equal per-class TOKEN totals (20 vs 20), so the per-class OOV
    # default is identical and the PRIOR alone decides all-OOV docs —
    # with unequal totals the smaller class's higher default
    # ln(1/(total+V)) legitimately outweighs the prior
    train = pd.DataFrame({
        "doc_id": range(30),
        "lang": ["en"] * 20 + ["de"] * 10,
        "text": ["apple"] * 20 + ["apfel birne"] * 10,
    })
    ds = rd.from_pandas(train).repartition(3)
    model = ml.nb_train(ds, text_col="text", label_col="lang")
    test = pd.DataFrame({
        "doc_id": [100, 101],
        "lang": ["x", "x"],
        "text": ["zzz qqq www", "apfel zzz"],
    })
    out = ml.nb_predict(rd.from_pandas(test), model).to_pandas() \
        .sort_values("doc_id")
    # all-OOV -> prior decides (en has 2x the docs); one seen de word
    # dominates the shared OOV terms
    assert out.pred_label.tolist() == ["en", "de"]


def test_bpe_encode_matches_sequential_reference():
    """Rank-greedy application (GPT-2 bpe() shape) must equal applying
    the learned merges sequentially in rank order — equivalent for
    char-trained merges since a merge can only create pairs of later
    rank — and be partition-invariant."""
    import pandas as pd
    import ray.data as rd

    texts = ["low lower lowest low low",
             "new newer newest new newer",
             "wider wide widest low new", "", "x"]
    docs = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    ds = rd.from_pandas(docs).repartition(3)
    merges = text.bpe_train(ds, num_merges=6)
    pairs = list(zip(merges["left"].to_pylist(),
                     merges["right"].to_pylist()))

    def seq_apply(word):
        syms = list(word)
        for l, r in pairs:  # rank order
            res, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == l \
                        and syms[i + 1] == r:
                    res.append(l + r); i += 2
                else:
                    res.append(syms[i]); i += 1
            syms = res
        return len(syms)

    exp = [sum(seq_apply(w) for w in t.split(" ") if w)
           for t in texts]
    for parts in (2, 5):
        got = text.bpe_encode(rd.from_pandas(docs).repartition(parts),
                              merges).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        assert got.n_tokens.tolist() == exp
        assert got.n_words.tolist() == \
            [len(t.split(" ")) for t in texts]


def test_scale_guards_nb_pmi_cooccurrence(monkeypatch):
    """The three round-3 driver-side size hazards are guarded: NB prunes
    the Zipf tail distributedly and refuses past its byte budget; PMI's
    margin attach falls back to bucketed joins under a forced
    zero-budget and agrees with the broadcast path; co-occurrence caps
    per-key distinct values deterministically."""
    import pandas as pd
    import pytest
    import ray.data as rd

    from prclz_ray.stages import ml, relational
    from prclz_ray.stages import text as tx

    docs = pd.DataFrame({
        "doc_id": range(40),
        "lang": ["en"] * 20 + ["de"] * 20,
        "text": (["apple pear apple plum rare1"] * 20
                 + ["apfel birne apfel rare2 rare3"] * 20),
    })
    ds = rd.from_pandas(docs).repartition(3)
    # min_word_count prunes singletons-per-class words; predictions hold
    full = ml.nb_train(ds)
    pruned = ml.nb_train(ds, min_word_count=25)
    assert pruned["vocab"] < full["vocab"]
    out = ml.nb_predict(ds, pruned).to_pandas().sort_values("doc_id")
    assert out.pred_label.tolist() == docs.lang.tolist()
    with pytest.raises(ValueError, match="min_word_count"):
        ml.nb_train(ds, vocab_budget_bytes=1)

    # PMI: zero budget forces the bucketed margin joins; same top-k
    a = tx.top_pmi_collocations(ds, k=5, min_count=3)
    monkeypatch.setattr(util, "BROADCAST_LIMIT_BYTES", 0)
    b = tx.top_pmi_collocations(ds, k=5, min_count=3)
    assert a[["w1", "w2", "c12", "pmi"]].values.tolist() == \
        b[["w1", "w2", "c12", "pmi"]].values.tolist()

    # co-occurrence cap: key 0 has 6 distinct values, cap 3 keeps the
    # lexicographically-first 3 -> C(3,2)=3 pairs for that key
    ev = pd.DataFrame({"k": [0] * 6 + [1, 1],
                       "v": list("fedcba") + ["a", "b"]})
    capped = relational.cooccurrence_pairs(
        rd.from_pandas(ev).repartition(2), "k", "v",
        max_vals_per_key=3).to_pandas()
    got = {(r.a, r.b) for r in capped.itertuples()}
    assert got == {("a", "b"), ("a", "c"), ("b", "c")}
    assert capped.set_index(["a", "b"]).n_keys[("a", "b")] == 2


def test_bm25_ranking_sanity():
    """BM25 must rank a doc saturated with the query terms above one
    with a single mention, and ignore docs with none."""
    import pandas as pd
    import ray.data as rd

    docs = pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": ["hash join hash join hash join",
                 "a hash appears once in this rather longer document "
                 "full of other words and padding tokens here",
                 "nothing relevant at all whatsoever",
                 "join join"],
    })
    out = text.bm25_topk(rd.from_pandas(docs).repartition(2),
                         ["hash", "join"], k=10)
    ids = out.doc_id.tolist()
    assert 2 not in ids            # no query terms -> never retrieved
    assert ids[0] == 0             # both terms, high tf, short doc
    assert set(ids) == {0, 1, 3}
    assert (out.score.to_numpy() > 0).all()
    # deterministic across partitionings
    out2 = text.bm25_topk(rd.from_pandas(docs).repartition(4),
                          ["hash", "join"], k=10)
    assert out2.doc_id.tolist() == ids
    assert out2.score.tolist() == out.score.tolist()


def test_clean_lines_drops_boilerplate_keeps_order():
    import pandas as pd
    import ray.data as rd

    docs = pd.DataFrame({
        "doc_id": [0, 1],
        "text": ["good first sentence here\nHome | About\n"
                 "another fine body line\n12 345 67",
                 "ok"],
    })
    out = text.clean_lines(rd.from_pandas(docs).repartition(2)) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert out.text_clean[0] == \
        "good first sentence here\nanother fine body line"
    assert out.n_lines[0] == 4 and out.n_kept[0] == 2
    # a doc whose every line fails keeps an empty clean text
    assert out.text_clean[1] == "" and out.n_kept[1] == 0


def test_perceptual_media_dedup_resized_and_reencoded():
    """dHash must pair a resized copy of an image with its original
    (exact payload dedup cannot); audio fingerprint pairs the same tone
    at different amplitudes; unrelated media do not pair."""
    from prclz_ray.stages import multimodal as M

    rng = np.random.default_rng(11)
    # smooth gradient image: resize-stable structure
    base = np.zeros((32, 32, 3), dtype=np.uint8)
    base[:, :, 0] = np.linspace(0, 255, 32, dtype=np.uint8)[None, :]
    base[:, :, 1] = np.linspace(255, 0, 32, dtype=np.uint8)[:, None]
    big = M.resize_nearest(base, 64, 64)
    noise = rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)
    t = np.arange(8000) / 8000.0
    tone = np.sin(2 * np.pi * 440 * t)
    rows = [
        {"media_id": "img_a", "kind": "image",
         "payload": M.encode_bmp(base), "width": 32, "height": 32,
         "duration_ms": 0},
        {"media_id": "img_b", "kind": "image",
         "payload": M.encode_bmp(big), "width": 64, "height": 64,
         "duration_ms": 0},
        {"media_id": "img_noise", "kind": "image",
         "payload": M.encode_bmp(noise), "width": 32, "height": 32,
         "duration_ms": 0},
        {"media_id": "aud_a", "kind": "audio",
         "payload": M.encode_wav(tone), "width": 0, "height": 0,
         "duration_ms": 1000},
        {"media_id": "aud_b", "kind": "audio",
         "payload": M.encode_wav(tone * 0.5), "width": 0, "height": 0,
         "duration_ms": 1000},
    ]
    ds = rd.from_items(rows).repartition(2)
    out = M.perceptual_dup_pairs(ds, max_hamming=2).to_pandas()
    got = {tuple(sorted(p)) for p in zip(out["a"], out["b"])}
    assert ("img_a", "img_b") in got
    assert ("aud_a", "aud_b") in got
    assert not any("img_noise" in p for pair in got for p in pair)
    # determinism
    out2 = M.perceptual_dup_pairs(ds, max_hamming=2).to_pandas()
    assert {tuple(sorted(p)) for p in zip(out2["a"], out2["b"])} == got


def test_media_perceptual_query_pins_resized_pairs():
    from prclz_ray.pipelines.queries import q_media_perceptual_pairs
    out = q_media_perceptual_pairs("/root/testdata/sf0.001")
    got = {tuple(sorted(p)) for p in zip(out["a"], out["b"])}
    # exactly the 5 seeded resized copies pair with their originals:
    # images are rows 0,3,6,9,12 of the synth table (kind cycle i%3)
    expect = {(f"m{i:05d}", f"r{1000 + k:05d}")
              for k, i in enumerate([0, 3, 6, 9, 12])}
    assert got == expect


def test_allpairs_jaccard_recall_complete_on_seeded_neardups():
    """Prefix filtering must find EVERY pair with J >= t (no LSH-style
    misses): seeded texts with one-char tail edits sit just above the
    threshold, distinct texts far below."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from prclz_ray.stages import dedup as dd

    rng = np.random.default_rng(5)
    base = ["".join(chr(97 + c) for c in rng.integers(0, 26, 120))
            for _ in range(30)]
    texts, ids = [], []
    for i, t in enumerate(base):
        texts.append(t)
        ids.append(i)
        texts.append(t[:-1] + "#")     # near-identical copy
        ids.append(1000 + i)
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "text": pa.array(texts)})).repartition(6)
    out = dd.allpairs_jaccard(ds, jaccard_threshold=0.8).to_pandas()
    got = set(zip(out["a"], out["b"]))
    want = {(i, 1000 + i) for i in range(30)}
    assert want <= got
    # and nothing between unrelated random bases
    assert all(b - a == 1000 for a, b in got)


def test_grouped_ordered_concat_deterministic_across_parallelism():
    import pyarrow as pa
    import ray.data as rd

    from prclz_ray.stages import relational as r

    t = pa.table({
        "k": pa.array([1, 1, 1, 2, 2, 3], type=pa.int64()),
        "o": pa.array([3, 1, 2, 2, 1, 1], type=pa.int64()),
        "id": pa.array([10, 11, 12, 13, 14, 15], type=pa.int64()),
        "v": pa.array(list("CABBAZ"))})
    exp = {1: ("A>B>C", 3), 2: ("A>B", 2), 3: ("Z", 1)}
    for parts in (1, 4):
        ds = rd.from_arrow(t).repartition(parts)
        out = r.grouped_ordered_concat(
            ds, key_col="k", order_cols=["o", "id"], val_col="v") \
            .to_pandas().set_index("k")
        got = {k: (row["path"], row["n_events"])
               for k, row in out.iterrows()}
        assert got == exp


def test_weighted_sample_favors_heavy_weights_and_is_deterministic():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from prclz_ray.stages import relational as r

    n = 4000
    # half the keys carry 50x the weight of the other half
    w = np.where(np.arange(n) % 2 == 0, 500.0, 10.0)
    t = pa.table({"k": pa.array(np.arange(n), type=pa.int64()),
                  "w": pa.array(w)})
    outs = []
    for parts in (2, 16):
        ds = rd.from_arrow(t).repartition(parts)
        out = r.weighted_sample(ds, key_col="k", weight_col="w", n=200)
        outs.append(sorted(out["k"].to_pylist()))
    assert outs[0] == outs[1]          # parallelism-invariant
    heavy = sum(1 for k in outs[0] if k % 2 == 0)
    assert heavy > 150                 # heavy keys dominate the sample


def test_skyline_empty_and_single_row():
    import pyarrow as pa
    import ray.data as rd

    from prclz_ray.stages import relational as r

    one = rd.from_arrow(pa.table({
        "id": pa.array([7], type=pa.int64()),
        "p": pa.array([1.0]), "d": pa.array([2.0])}))
    assert r.skyline(one, "p", "d", ["id"]).to_pandas()["id"].tolist() == [7]
    empty = rd.from_arrow(pa.table({
        "id": pa.array([], type=pa.int64()),
        "p": pa.array([], type=pa.float64()),
        "d": pa.array([], type=pa.float64())}))
    assert r.skyline(empty, "p", "d", ["id"]).count() == 0


def test_longest_consecutive_run_known_streaks():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from prclz_ray.stages import relational as r

    base = np.datetime64("2024-01-01T12:00:00")
    rows = []
    # user 1: days 0,1,2, 5,6  -> streak 3; user 2: 0, 2, 4 -> 1
    for d in (0, 1, 2, 5, 6):
        rows.append((1, base + np.timedelta64(d, "D")))
    for d in (0, 2, 4):
        rows.append((2, base + np.timedelta64(d, "D")))
    # duplicate hits on the same day must not inflate streaks
    rows.append((1, base + np.timedelta64(1, "D")
                 + np.timedelta64(3600, "s")))
    t = pa.table({
        "user_id": pa.array([u for u, _ in rows], type=pa.int64()),
        "ts": pa.array([ts for _, ts in rows])})
    for parts in (1, 4):
        out = r.longest_consecutive_run(
            rd.from_arrow(t).repartition(parts),
            key_col="user_id", ts_col="ts").to_pandas() \
            .set_index("user_id")["longest_streak"].to_dict()
        assert out == {1: 3, 2: 1}


def test_distributed_auc_known_value_ties_and_degenerate():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from prclz_ray.stages import ml

    # hand-computable: scores .1(neg) .2(pos) .2(neg) .3(pos)
    # pairs: (pos .2 vs neg .1)=1, (pos .2 vs neg .2)=.5,
    #        (pos .3 vs neg .1)=1, (pos .3 vs neg .2)=1 -> 3.5/4
    t = pa.table({"score": pa.array([0.1, 0.2, 0.2, 0.3]),
                  "label": pa.array([0, 1, 0, 1], type=pa.int64())})
    for parts in (1, 3):
        out = ml.distributed_auc(
            rd.from_arrow(t).repartition(parts), "score", "label") \
            .to_pandas()
        assert out["auc"].tolist() == [0.875]
    # perfect separation
    t2 = pa.table({"score": pa.array([0.1, 0.2, 0.8, 0.9]),
                   "label": pa.array([0, 0, 1, 1], type=pa.int64())})
    assert ml.distributed_auc(rd.from_arrow(t2), "score",
                              "label").to_pandas()["auc"].tolist() == [1.0]
    # single class -> NULL like SQL division by zero
    t3 = pa.table({"score": pa.array([0.1, 0.2]),
                   "label": pa.array([1, 1], type=pa.int64())})
    assert ml.distributed_auc(rd.from_arrow(t3), "score",
                              "label").to_pandas()["auc"].isna().all()


def test_hll_overlap_matrix_error_bound_and_invariance():
    """Sketch-algebra pins: pairwise overlap estimates within the HLL
    error envelope of the exact intersection, and identical across
    partitionings (max-merge is associative)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from prclz_ray.stages import sketches

    rng = np.random.default_rng(3)
    rows = []
    for g, lo, hi in [("click", 0, 6000), ("view", 3000, 9000),
                      ("purchase", 5000, 6500)]:
        users = rng.integers(lo, hi, 8000)
        rows.append(pd.DataFrame({"event_type": g, "user_id": users}))
    df = pd.concat(rows, ignore_index=True)

    def run(parts):
        return sketches.hll_overlap_matrix(
            rd.from_pandas(df).repartition(parts),
            group_col="event_type", key_col="user_id").to_pandas()

    got = run(5)
    exact = {g: set(d["user_id"]) for g, d in df.groupby("event_type")}
    err = 3 * 1.04 / np.sqrt(1 << 14)       # 3 sigma per sketch
    for r in got.itertuples():
        ea, eb = exact[r.group_a], exact[r.group_b]
        inter = len(ea & eb)
        # overlap combines three sketches: allow the summed envelope
        tol = err * (len(ea) + len(eb) + len(ea | eb)) + 2
        assert abs(r.approx_overlap - inter) <= tol, (r, inter, tol)
        assert abs(r.approx_a - len(ea)) <= err * len(ea) + 2
    pd.testing.assert_frame_equal(got, run(11))


def test_sentence_stats_edge_docs_and_invariance():
    """Docs that are ALL delimiters (zero sentences), empty after trim,
    and multi-delimiter runs; result identical at 1 and 4 partitions."""
    import pandas as pd
    import ray.data as rd

    from prclz_ray.pipelines.queries import q_sentence_stats_by_lang  # noqa
    from prclz_ray.stages import relational

    # exercise the batch kernel directly through a tiny synthetic table
    import pyarrow as pa

    from prclz_ray.pipelines.queries import webtext as Q

    docs = pd.DataFrame({
        "lang": ["en", "en", "fr", "fr"],
        "text": ["One. Two!  Three?", "...!!??", "Salut. \n\t Oui!",
                 "abc"]})

    outs = []
    for parts in (1, 4):
        ds = rd.from_pandas(docs).repartition(parts)
        # reuse the registry function body via a shim sf_dir-free call
        from ray.data.aggregate import Sum
        import numpy as np

        def run(ds):
            orig = Q._read
            try:
                Q._read = lambda *_a, **_k: ds
                return Q.q_sentence_stats_by_lang("unused").to_pandas()
            finally:
                Q._read = orig
        out = run(ds).sort_values("lang").reset_index(drop=True)
        outs.append(out)
    a, b = outs
    pd.testing.assert_frame_equal(a, b)
    en = a[a["lang"] == "en"].iloc[0]
    assert int(en["sentences"]) == 3      # the all-delimiter doc adds 0
    assert int(en["n_docs"]) == 2
    fr = a[a["lang"] == "fr"].iloc[0]
    assert int(fr["sentences"]) == 3      # 'abc' counts as one sentence
    assert float(fr["avg_sentence_chars"]) == round((5 + 3 + 3) / 3, 4)


def test_stationary_dist_partition_invariant_and_sums_near_one():
    import numpy as np

    import prclz_ray.pipelines.queries as Q

    a = Q.q_stationary_event_dist("/root/testdata/sf0.001")
    b = Q.q_stationary_event_dist("/root/testdata/sf0.001")
    assert a.equals(b)
    s = int(np.sum(a["p_nano"].to_numpy()))
    assert abs(s - 10 ** 9) < 100 * len(a)   # rounding drift only


def test_within_doc_line_dedup_edges():
    """Duplicate lines collapse to first occurrence in order; a doc of
    all-identical lines keeps one; empty text round-trips."""
    import pandas as pd
    import ray.data as rd

    from prclz_ray.pipelines.queries import corpus_stats as Q

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["a\nb\na\nc\nb", "x\nx\nx", ""]})

    orig = Q._read
    try:
        Q._read = lambda *_a, **_k: rd.from_pandas(docs).repartition(2)
        out = Q.q_within_doc_line_dedup("unused").to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
    finally:
        Q._read = orig
    assert list(out["text_clean"]) == ["a\nb\nc", "x", ""]
    assert list(out["n_lines"]) == [5, 3, 1]
    assert list(out["n_kept"]) == [3, 1, 1]


def test_trimmed_mean_exact_int_rounding():
    """Round-half-up micro-dollar semantics on a hand-computed group."""
    import pandas as pd
    import ray.data as rd

    from prclz_ray.pipelines.queries import customer_stats as Q

    # 10 rows, nation 0: cents 0..900 by 100 -> trim 1 low + 1 high,
    # kept 100..800, mean 450 cents -> 45000 micro exactly
    cust = pd.DataFrame({
        "c_custkey": range(10),
        "c_nationkey": [0] * 10,
        "c_acctbal": [i * 1.0 for i in range(10)]})
    orig = Q._read
    try:
        Q._read = lambda *_a, **_k: rd.from_pandas(cust).repartition(3)
        out = Q.q_trimmed_mean_acctbal("unused").to_pandas()
    finally:
        Q._read = orig
    assert int(out["n_kept"].iloc[0]) == 8
    assert int(out["trimmed_mean_micro"].iloc[0]) == 45000


def test_jpeg_roundtrip_and_decode_stage():
    """Baseline JFIF codec is REAL (numpy huffman + IDCT): smooth
    images round-trip within quantization error, flat images exactly;
    the decode stage flags JPEG payloads decoded=True end-to-end."""
    from prclz_ray.stages import multimodal as M
    h, w = 37, 53
    yy, xx = np.mgrid[0:h, 0:w]
    img = np.stack([(xx * 4) % 256, (yy * 4) % 256,
                    ((xx + yy) * 2) % 256], axis=2).astype(np.uint8)
    buf = M.encode_jpeg(img)
    assert buf[:2] == b"\xFF\xD8" and buf[-2:] == b"\xFF\xD9"
    out = M.decode_jpeg(buf)
    assert out.shape == (h, w, 3)
    err = np.abs(out.astype(int) - img.astype(int))
    assert err.max() <= 12 and err.mean() < 4.0

    flat = np.full((24, 24, 3), 128, dtype=np.uint8)
    assert np.array_equal(M.decode_jpeg(M.encode_jpeg(flat)), flat)

    # decode stage: every other image a REAL JPEG, all images decode
    tbl = M.synth_media_table(24, jpeg_every=2)
    assert any(bytes(p)[:2] == b"\xFF\xD8"
               for p in tbl["payload"].to_pylist())
    out2 = M.decode_pipeline(rd.from_arrow(tbl),
                             batch_size=8).to_pandas()
    assert bool(out2.groupby("kind")["decoded"].all()["image"])
    # non-baseline variants take the flagged fallback, not a crash
    import struct
    prog = buf.replace(struct.pack(">H", 0xFFC0),
                       struct.pack(">H", 0xFFC2), 1)
    dec = M.MediaDecoder()
    _, ok = dec._decode(prog)
    assert ok is False
