"""Distributed model scoring and training over feature Datasets.

Two shapes a training-data pipeline needs:
  - ``logreg_score``: broadcast-weights batched inference — the pattern
    every model-scoring stage follows (weights live in the task closure,
    the batch matmul is one numpy call, no shuffle at all).
  - ``logreg_train``: synchronous gradient descent where each epoch is ONE
    streaming pass: per-batch gradient partials (a k-vector per batch)
    reduce through Ray's Sum aggregate, the driver takes the O(k) step.
    Data never shuffles and never concentrates; only k floats per batch
    move.  Weights round to ``round_dp`` per epoch so the trajectory is
    identical across partitionings (same trick as graph_ops.pagerank).
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def logreg_score(ds, feature_cols: list[str], weights, bias: float,
                 out_col: str = "score", round_to: int = 6):
    """Vectorized logistic-regression inference: sigmoid(b + X·w) per
    row, weights shipped once in the task closure (they're O(k) — far
    below any broadcast budget).  Pure map; the SQL twin computes the
    identical sigmoid so scores hash-match at the rounding grain."""
    w = np.asarray(weights, dtype=np.float64)

    def score(batch: pa.Table) -> pa.Table:
        X = np.column_stack([
            batch[c].to_numpy(zero_copy_only=False).astype(np.float64)
            for c in feature_cols])
        s = np.round(_sigmoid(bias + X @ w), round_to)
        return batch.append_column(out_col, pa.array(s))

    return ds.map_batches(score, batch_format="pyarrow")


def logreg_train(ds, feature_cols: list[str], label_col: str,
                 epochs: int = 5, lr: float = 0.5,
                 round_dp: int = 9) -> dict:
    """Full-batch gradient-descent logistic regression.  Each epoch is
    one streaming pass: per-batch partials of the gradient
    X^T(sigmoid(Xw) − y) and the row count reduce via Sum aggregates;
    the driver applies w ← w − lr·g/n and rounds to ``round_dp``.
    Deterministic across partitionings (gradient summation drift is far
    below the rounding grain); pytest pins equality with a single-process
    numpy reference.  Returns {"bias": b, "weights": [...], "n": rows}."""
    from ray.data.aggregate import Sum

    k = len(feature_cols)
    w = np.zeros(k)
    b = 0.0
    n_rows: int | None = None

    for _ in range(epochs):
        w_now, b_now = w.copy(), b

        def grad_partial(batch: pa.Table) -> pa.Table:
            X = np.column_stack([
                batch[c].to_numpy(zero_copy_only=False).astype(np.float64)
                for c in feature_cols])
            y = batch[label_col].to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            r = _sigmoid(b_now + X @ w_now) - y
            cols = {f"g{i}": pa.array([float(X[:, i] @ r)])
                    for i in range(k)}
            cols["gb"] = pa.array([float(r.sum())])
            cols["n"] = pa.array([len(y)], type=pa.int64())
            return pa.table(cols)

        agg = ds.map_batches(grad_partial, batch_format="pyarrow") \
            .aggregate(*[Sum(f"g{i}", alias_name=f"g{i}")
                         for i in range(k)],
                       Sum("gb", alias_name="gb"),
                       Sum("n", alias_name="n"))
        n_rows = int(agg["n"])
        w = np.round(w - lr * np.array([agg[f"g{i}"] for i in range(k)])
                     / n_rows, round_dp)
        b = round(b - lr * agg["gb"] / n_rows, round_dp)

    return {"bias": b, "weights": w.tolist(), "n": n_rows}

def nb_train(docs_ds, text_col: str = "text", label_col: str = "lang",
             min_word_count: int = 1,
             vocab_budget_bytes: int = 256 << 20):
    """Multinomial naive-Bayes training (the fastText-style bag-of-words
    quality/language classifier CC pipelines train for filtering):
    add-1-smoothed word likelihoods per class + doc-count priors.

    Scale shape: the corpus is touched ONCE — per-batch arrow explode +
    group_by (label, word) count partials → one global groupby-sum on the
    (label, word) key (vocabulary-sized, not corpus-sized); priors and
    per-class token totals reduce from the same pass.  Returns a dict of
    small tables: {"word_counts": (label, word, c), "class_docs":
    (label, n_docs), "n_docs": int, "vocab": int}.

    The model lands on the driver and broadcasts to every scorer, so it
    is the size-bounded side: ``min_word_count > 1`` prunes the Zipf
    tail with a pure DISTRIBUTED filter before anything materializes
    (count ≥ 2 typically halves a web vocabulary; dropped words score
    through the smoothed OOV default, the standard NB treatment), and
    the build REFUSES past ``vocab_budget_bytes`` with a clear error
    instead of silently OOMing the driver."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    # one corpus pass: word-count rows (_doc=0) and per-label doc-count
    # marker rows (_doc=1) share the same partial + single groupby —
    # the flag keeps marker rows disjoint from genuine empty-string words
    def partial(batch: pa.Table) -> pa.Table:
        parts = pc.split_pattern(batch[text_col], pattern=" ")
        n = pc.list_value_length(parts).to_numpy(zero_copy_only=False)
        labels = batch[label_col].to_numpy(zero_copy_only=False)
        lbl = np.repeat(labels, n)
        g = pa.table({"label": pa.array(lbl),
                      "word": pc.list_flatten(parts)}) \
            .group_by(["label", "word"]).aggregate([([], "count_all")])
        d = batch.select([label_col]).group_by(label_col) \
            .aggregate([([], "count_all")])
        nw, nd = g.num_rows, d.num_rows
        return pa.table({
            "label": pa.concat_arrays([
                g["label"].combine_chunks().cast(pa.string()),
                d[label_col].combine_chunks().cast(pa.string())]),
            "word": pa.concat_arrays([
                g["word"].combine_chunks().cast(pa.string()),
                pa.array([""] * nd, type=pa.string())]),
            "_doc": pa.array(np.r_[np.zeros(nw, np.int8),
                                   np.ones(nd, np.int8)]),
            "pc": pa.concat_arrays([
                g["count_all"].combine_chunks().cast(pa.int64()),
                d["count_all"].combine_chunks().cast(pa.int64())])})

    from .relational import ds_to_table
    merged_ds = docs_ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(["label", "_doc", "word"]) \
        .aggregate(Sum("pc", alias_name="c"))
    if min_word_count > 1:
        # distributed Zipf-tail prune BEFORE the driver sees anything;
        # marker rows (_doc=1) always survive
        merged_ds = merged_ds.map_batches(
            lambda t: t.filter(pc.or_(
                pc.greater_equal(t["c"], min_word_count),
                pc.equal(t["_doc"], 1))),
            batch_format="pyarrow")
    merged_ds = merged_ds.materialize()
    if (merged_ds.size_bytes() or 0) > vocab_budget_bytes:
        raise ValueError(
            f"NB model would be {merged_ds.size_bytes()} bytes on the "
            f"driver (budget {vocab_budget_bytes}); raise "
            f"min_word_count to prune the Zipf tail")
    merged = ds_to_table(merged_ds)
    is_doc = pc.equal(merged["_doc"], 1)
    wc = merged.filter(pc.invert(is_doc)).select(["label", "word", "c"])
    cd_t = merged.filter(is_doc)
    cd = pa.table({"label": cd_t["label"],
                   "n_docs": cd_t["c"].cast(pa.int64())})

    return {"word_counts": wc, "class_docs": cd,
            "n_docs": int(pc.sum(cd["n_docs"]).as_py()),
            "vocab": len(pc.unique(wc["word"]))}


def nb_predict(docs_ds, model: dict, text_col: str = "text",
               id_col: str = "doc_id"):
    """Naive-Bayes inference: argmax over classes of
    ln(prior) + Σ_tokens ln((c(w,class)+1)/(total_class+V)) — the
    model tables ship once via ``ray.put`` and every batch scores with
    one vectorized merge + per-class segment sum (no shuffle; argmax is
    robust to last-ulp float drift so the output is pure integers/strings
    and hash-exact).  Emits (id, n_tokens, pred_label); ties break by
    label ascending."""
    import pandas as pd
    import pyarrow.compute as pc
    import ray

    wc = model["word_counts"].to_pandas()
    cd = model["class_docs"].to_pandas().sort_values("label")
    labels = cd["label"].tolist()
    v = model["vocab"]
    totals = wc.groupby("label")["c"].sum().reindex(labels).fillna(0)
    # word → per-class ln-likelihood matrix (wide); OOV handled by the
    # per-class default ln(1/(total+V))
    wide = wc.pivot_table(index="word", columns="label", values="c",
                          aggfunc="sum", fill_value=0)
    wide = wide.reindex(columns=labels, fill_value=0)
    loglik = np.log((wide.to_numpy(dtype=np.float64) + 1.0)
                    / (totals.to_numpy(dtype=np.float64) + v))
    default = np.log(1.0 / (totals.to_numpy(dtype=np.float64) + v))
    prior = np.log(cd["n_docs"].to_numpy(dtype=np.float64)
                   / model["n_docs"])
    ref = ray.put((pd.Index(wide.index), loglik, default, prior, labels))

    def score(batch: pa.Table) -> pa.Table:
        words_idx, ll, dflt, pri, lbls = ray.get(ref)
        parts = pc.split_pattern(batch[text_col], pattern=" ")
        n = pc.list_value_length(parts).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        flat = pc.list_flatten(parts).to_pandas()
        pos = words_idx.get_indexer(flat)
        if ll.shape[0] == 0:  # fully-pruned model: every token is OOV
            tok_ll = np.broadcast_to(dflt, (len(flat), len(dflt)))
        else:
            tok_ll = np.where(pos[:, None] >= 0,
                              ll[np.maximum(pos, 0)], dflt[None, :])
        doc_idx = np.repeat(np.arange(len(batch)), n)
        sums = np.zeros((len(batch), len(lbls)))
        np.add.at(sums, doc_idx, tok_ll)
        # argmax returns the FIRST max and labels are sorted ascending,
        # so ties break by label ascending — same as ORDER BY s DESC, label
        pred = np.argmax(sums + pri[None, :], axis=1)
        return pa.table({id_col: batch[id_col],
                         "n_tokens": pa.array(n),
                         "pred_label": pa.array(
                             [lbls[i] for i in pred])})

    return docs_ds.map_batches(score, batch_format="pyarrow")


def distributed_auc(ds, score_col: str, label_col: str,
                    round_dp: int = 6):
    """Exact ROC AUC (Mann-Whitney U with tie correction) as a
    distributed aggregation:

        AUC = sum over distinct scores v ascending of
              n_pos(v) * (cum_neg(<v) + n_neg(v)/2) / (P*N)

    Per batch, rows collapse to (score, n_pos, n_neg) partials BEFORE
    the shuffle; one groupby(score) sums them.  Because scores are
    QUANTIZED (callers round model scores, e.g. 6 dp in (0,1)), the
    reduced table is bounded by the score grid (~1e6 rows) regardless
    of corpus size, so a single vectorized task finishes the ordered
    cumulative sweep — nothing row-scaled ever concentrates.  Degenerate
    single-class inputs return AUC = NULL like SQL's division by zero.
    """
    import pandas as pd

    from .relational import bucket_shuffle

    def partial(t: pa.Table) -> pd.DataFrame:
        s = t[score_col].to_numpy(zero_copy_only=False)
        l = t[label_col].to_numpy(zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame({"s": s, "p": l, "n": 1 - l})
        return df.groupby("s", sort=False).sum().reset_index()

    def combine(df: pd.DataFrame) -> pa.Table:
        g = df.groupby("s", sort=False)[["p", "n"]].sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    def finish(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values("s")
        np_ = df["p"].to_numpy(dtype=np.float64)
        nn = df["n"].to_numpy(dtype=np.float64)
        P, N = np_.sum(), nn.sum()
        if P == 0 or N == 0:
            return pa.table({"auc": pa.array([None], type=pa.float64())})
        cum_below = np.cumsum(nn) - nn
        auc = float((np_ * (cum_below + nn / 2.0)).sum() / (P * N))
        return pa.table({"auc": pa.array([round(auc, round_dp)],
                                         type=pa.float64())})

    reduced = bucket_shuffle(ds, "s", combine, prepare=partial)
    return reduced.repartition(1).map_batches(
        finish, batch_format="pyarrow", batch_size=None)
