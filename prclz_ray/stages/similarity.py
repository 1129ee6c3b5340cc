"""Similarity search over an embedding column (list<float>).

  ann_bruteforce   exact top-k cosine per query: numpy matmul per batch
                   against a broadcast query matrix (the baseline)
  ann_ivf          IVF-style scale path: k-means-lite coarse centroids,
                   per-batch probe of the nprobe nearest lists
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray


def _as_matrix(col) -> np.ndarray:
    """(n, dim) float32 from a list<float> column — zero-copy flatten when
    the lists are uniform length (the embedding-table invariant), pylist
    fallback otherwise."""
    try:
        arr = col.combine_chunks() if hasattr(col, "combine_chunks") else col
        offs = np.diff(arr.offsets.to_numpy(zero_copy_only=False))
        if len(offs) and (offs == offs[0]).all():
            flat = arr.flatten().to_numpy(zero_copy_only=False)
            return flat.reshape(len(offs), offs[0]).astype(np.float32,
                                                           copy=False)
    except (AttributeError, ValueError):
        pass
    return np.asarray(col.to_pylist(), dtype=np.float32)


def _normalize(m: np.ndarray) -> np.ndarray:
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)


class BruteForceScorer:
    """Stateful stage: queries broadcast once (ray.put), normalized in
    __init__; per batch computes cosine vs every row and emits per-query
    partial top-k rows (merged by a tiny final groupby)."""

    def __init__(self, queries_ref, k: int, vec_col: str, id_col: str):
        q = ray.get(queries_ref) if isinstance(queries_ref, ray.ObjectRef) else queries_ref
        self.qids, qm = q
        self.qm = _normalize(np.asarray(qm, dtype=np.float32))
        self.k, self.vec_col, self.id_col = k, vec_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_as_matrix(batch[self.vec_col]))
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        sims = self.qm @ m.T                     # (nq, nb)
        k = min(self.k, sims.shape[1])
        top = np.argpartition(-sims, k - 1, axis=1)[:, :k]
        out_q, out_id, out_s = [], [], []
        for qi in range(sims.shape[0]):
            for j in top[qi]:
                out_q.append(self.qids[qi])
                out_id.append(int(ids[j]))
                out_s.append(float(sims[qi, j]))
        return pa.table({"query_id": out_q, "match_id": out_id,
                         "cosine": pa.array(out_s, type=pa.float64())})


def ann_bruteforce(ds, queries: np.ndarray, query_ids: list, k: int = 10,
                   vec_col: str = "embedding", id_col: str = "vec_id"):
    """Exact top-k cosine: per-batch partials → global top-k per query via
    a small sort/groupby (only nq×k×nbatches rows shuffle)."""
    from .util import cached_callable
    ref = ray.put((list(query_ids), np.asarray(queries, dtype=np.float32)))
    partials = ds.map_batches(
        cached_callable(BruteForceScorer, queries_ref=ref, k=k,
                        vec_col=vec_col, id_col=id_col),
        batch_format="pyarrow")

    def topk(group: pd.DataFrame) -> pa.Table:
        g = group.sort_values(["cosine", "match_id"], ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    return partials.groupby("query_id").map_groups(topk, batch_format="pandas")


# --------------------------------------------------------------------- IVF

def train_centroids(ds, vec_col="embedding", n_centroids=16, iters=5, seed=3,
                    sample_limit=4096):
    """k-means-lite on a driver-side sample (training is tiny; assignment
    is distributed)."""
    sample = ds.limit(sample_limit).take_all()
    X = _normalize(np.asarray([r[vec_col] for r in sample], dtype=np.float32))
    rng = np.random.default_rng(seed)
    C = X[rng.choice(len(X), size=min(n_centroids, len(X)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(X @ C.T, axis=1)
        for c in range(len(C)):
            m = assign == c
            if m.any():
                C[c] = X[m].mean(axis=0)
        C = _normalize(C)
    return C


def kmeans_fit(ds, n_clusters: int = 8, iters: int = 10, seed: int = 3,
               vec_col: str = "embedding", id_col: str = "vec_id",
               sample_limit: int = 4096):
    """Distributed spherical k-means (Lloyd's) over the full dataset.

    Init: seeded choice from a driver-side sample (tiny).  Each iteration
    is ONE streaming pass: per batch, rows are assigned to their
    argmax-cosine centroid and the batch emits k partial rows
    (cluster, sum-vector, count, objective) — so the driver only ever sees
    k × n_batches tiny partials, never the data.  Partials are summed in a
    canonical order (sorted by their min-id batch key) so the float64
    accumulation is reproducible for a fixed block layout; across
    different parallelism levels centroids agree to ~1e-12 (asserted in
    tests with a tolerance, not a hash).

    Returns ``(centroids, objective_history)`` — centroids are unit-norm
    float64 ``(k, dim)``; the objective (mean max-cosine) is
    non-decreasing per Lloyd's guarantee.
    """
    sample = ds.limit(sample_limit).take_all()
    X = _normalize(np.asarray([r[vec_col] for r in sample],
                              dtype=np.float64))
    rng = np.random.default_rng(seed)
    C = X[rng.choice(len(X), size=min(n_clusters, len(X)), replace=False)]
    k = len(C)
    history: list[float] = []

    for _ in range(iters):
        Cf = C  # captured per-iteration (small: k×dim float64)

        def partial(batch: pa.Table, C=Cf) -> pa.Table:
            m = _as_matrix(batch[vec_col]).astype(np.float64)
            m = _normalize(m)
            sims = m @ C.T
            a = np.argmax(sims, axis=1)
            sums = np.zeros_like(C)
            np.add.at(sums, a, m)
            counts = np.bincount(a, minlength=len(C)).astype(np.int64)
            ids = batch[id_col].to_numpy(zero_copy_only=False)
            bkey = int(ids.min()) if len(ids) else 0
            return pa.table({
                "cluster": pa.array(np.arange(len(C), dtype=np.int64)),
                "vsum": pa.array(list(sums)),
                "n": pa.array(counts),
                "obj": pa.array([float(sims.max(axis=1).sum())]
                                + [0.0] * (len(C) - 1)),
                "batch_key": pa.array([bkey] * len(C), type=pa.int64()),
            })

        parts = ds.map_batches(partial, batch_format="pyarrow").take_all()
        parts.sort(key=lambda r: (r["batch_key"], r["cluster"]))
        sums = np.zeros_like(C)
        counts = np.zeros(k, dtype=np.int64)
        obj = 0.0
        total = 0
        for r in parts:
            c = r["cluster"]
            sums[c] += np.asarray(r["vsum"], dtype=np.float64)
            counts[c] += r["n"]
            obj += r["obj"]
            total += r["n"]
        live = counts > 0
        C = C.copy()
        C[live] = sums[live] / counts[live, None]
        C = _normalize(C)
        history.append(obj / max(total, 1))
    return C, history


def kmeans_assign(ds, centroids: np.ndarray, vec_col: str = "embedding",
                  id_col: str = "vec_id"):
    """Cluster assignment: per batch, argmax cosine(embedding, centroid)
    against the broadcast float64 centroid matrix (ties → lowest cluster
    id, matching the SQL ``ORDER BY sim DESC, cid`` twin).  Pure map — no
    shuffle; math in float64 with the explicit dot/(|a||b|) formula so the
    DuckDB ``list_cosine_similarity`` oracle computes the same doubles."""
    C = np.asarray(centroids, dtype=np.float64)
    Cn = np.linalg.norm(C, axis=1)

    def assign(batch: pa.Table) -> pa.Table:
        m = _as_matrix(batch[vec_col]).astype(np.float64)
        en = np.maximum(np.linalg.norm(m, axis=1), 1e-300)
        sims = (m @ C.T) / (en[:, None] * Cn[None, :])
        return pa.table({
            id_col: batch[id_col],
            "cluster": pa.array(np.argmax(sims, axis=1).astype(np.int64)),
        })

    return ds.map_batches(assign, batch_format="pyarrow")


def fixed_centroids(n_clusters: int = 8, dim: int = 16, seed: int = 7) \
        -> np.ndarray:
    """Deterministic unit-norm pseudo-random centroids shared between the
    engine and the SQL oracle (embedded there as exact ``repr`` literals —
    repr round-trips float64, and DuckDB's parser yields the identical
    double)."""
    C = np.random.default_rng(seed).standard_normal((n_clusters, dim))
    return _normalize(C)


def centroid_sql_values(C: np.ndarray) -> str:
    """``(cid, [..])`` VALUES rows for a DuckDB CTE, exact-repr floats."""
    rows = []
    for i, row in enumerate(C):
        lit = ", ".join(repr(float(v)) for v in row)
        rows.append(f"({i}, [{lit}]::DOUBLE[])")
    return ",\n    ".join(rows)


class IVFScorer:
    """Task-cached stage: rows assigned to their nearest centroid list;
    each batch scores only rows whose list is probed by some query."""

    def __init__(self, state_ref, k, vec_col, id_col):
        self.qids, self.qm, self.C, self.probe = ray.get(state_ref)
        self.k, self.vec_col, self.id_col = k, vec_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_as_matrix(batch[self.vec_col]))
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        lists = np.argmax(m @ self.C.T, axis=1)
        out_q, out_id, out_s = [], [], []
        for qi in range(len(self.qm)):
            mask = np.isin(lists, self.probe[qi])
            if not mask.any():
                continue
            sims = m[mask] @ self.qm[qi]
            sel = np.argsort(-sims)[: self.k]
            sub_ids = ids[mask]
            for j in sel:
                out_q.append(self.qids[qi])
                out_id.append(int(sub_ids[j]))
                out_s.append(float(sims[j]))
        return pa.table({"query_id": out_q, "match_id": out_id,
                         "cosine": pa.array(out_s, type=pa.float64())})


def ann_ivf(ds, queries: np.ndarray, query_ids: list, centroids: np.ndarray,
            k: int = 10, nprobe: int = 4, vec_col="embedding",
            id_col="vec_id"):
    """IVF path: rows assigned to their nearest centroid list inside
    map_batches; each batch scores only rows whose list is probed by some
    query. Same output shape as ann_bruteforce (approximate)."""
    C = _normalize(np.asarray(centroids, dtype=np.float32))
    qm = _normalize(np.asarray(queries, dtype=np.float32))
    probe = np.argsort(-(qm @ C.T), axis=1)[:, :nprobe]
    ref = ray.put((list(query_ids), qm, C, probe))

    from .util import cached_callable
    partials = ds.map_batches(
        cached_callable(IVFScorer, state_ref=ref, k=k, vec_col=vec_col,
                        id_col=id_col),
        batch_format="pyarrow")

    def topk(group: pd.DataFrame) -> pa.Table:
        g = group.sort_values(["cosine", "match_id"], ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    return partials.groupby("query_id").map_groups(topk, batch_format="pandas")


def embeddings_pca(ds, vec_col: str = "embedding", scale: int = 1_000_000,
                   top: int = 1):
    """Exact-integer-covariance PCA over an embedding column.

    Floats are quantized to ints (``round(x·scale)``) per batch, so the
    Gram matrix Σ xᵀx and the column sums are EXACT integers — the
    reduction is bit-identical at any partitioning / block order (float
    accumulation would not be).  Products can exceed int64 under global
    summation, so each Gram cell rides the (hi, lo) 128-bit split (the
    arithmetic->shift / mask decomposition is the floor/mod identity,
    exact for negatives — same convention as the skewness power sums).
    The d×d eigensolve runs once on the driver (d is the embedding
    width, never the row count); the sign convention makes the largest-
    |loading| coordinate positive so the eigenvector is deterministic.

    Returns (eigvecs[d, top], explained_ratio[top], n_rows) as numpy —
    the caller shapes the output table.
    """
    import pyarrow as pa_

    def partial(t: pa.Table) -> pa.Table:
        X = np.round(_as_matrix(t[vec_col]).astype(np.float64)
                     * scale).astype(np.int64)
        G = X.T @ X                       # exact: |x|·scale ≤ ~1e6
        s = X.sum(axis=0)
        flat = np.concatenate([G.reshape(-1), s])
        idx = np.arange(flat.size, dtype=np.int64)
        return pa_.table({
            "idx": pa_.array(idx),
            "ph": pa_.array(flat >> 32),
            "pl": pa_.array(flat & 0xFFFFFFFF),
            "pn": pa_.array(np.full(flat.size, X.shape[0],
                                    dtype=np.int64))})

    from ray.data.aggregate import Sum
    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("idx").aggregate(Sum("ph", alias_name="h"),
                                  Sum("pl", alias_name="l"),
                                  Sum("pn", alias_name="n")) \
        .to_pandas().sort_values("idx")
    vals = [int(h) * (1 << 32) + int(l)
            for h, l in zip(agg["h"], agg["l"])]
    d = int(round((np.sqrt(4 * len(vals) + 1) - 1) / 2))  # d² + d cells
    # every idx row carries Σ_batches rows_b = the total row count
    n = int(agg["n"].iloc[0])
    G = np.array(vals[:d * d], dtype=np.float64).reshape(d, d)
    s = np.array(vals[d * d:], dtype=np.float64)
    cov = (G - np.outer(s, s) / n) / n
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1][:top]
    vecs = v[:, order]
    for j in range(vecs.shape[1]):       # deterministic sign
        k = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[k, j] < 0:
            vecs[:, j] = -vecs[:, j]
    ratio = w[order] / w.sum()
    return vecs, ratio, n
