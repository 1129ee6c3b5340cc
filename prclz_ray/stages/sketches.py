"""Mergeable sketches: HyperLogLog approximate distinct count.

The scale-path alternative to ``unique``/``COUNT(DISTINCT)``'s all-to-all
shuffle: each block folds its rows into a fixed 2^p-register sketch
(16 KiB at p=14), partial sketches max-merge associatively, and the driver
combines #blocks tiny rows — no exchange of the key column at all.

Determinism: the key hash is pandas' process-stable siphash
(``pd.util.hash_array``, same primitive the engine's ``stable_bucket``
relies on) and register merge is ``max``, so ANY partitioning yields the
IDENTICAL register array and therefore the identical estimate — the
driver's rows-only determinism check holds across parallelism levels.

Estimator: standard bias-corrected HLL (Flajolet et al. 2007) with the
linear-counting small-range correction; relative error ≈ 1.04/√(2^p)
(0.81 % at p=14).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _hash_u64(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    vals = col.to_numpy(zero_copy_only=False)
    return pd.util.hash_array(vals).astype(np.uint64)


def _hash_u64_duckdb(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """DuckDB's 64-bit integer hash (the murmur-style finalizer behind
    SQL ``hash(x)``), bit-exact with DuckDB — sketch ops built on it
    carry FULL value-level SQL oracles instead of rows-only checks."""
    x = col.to_numpy(zero_copy_only=False).astype(np.uint64)
    M = np.uint64(0xd6e8feb86659fd93)
    x = x ^ (x >> np.uint64(32))
    x = x * M
    x = x ^ (x >> np.uint64(32))
    x = x * M
    x = x ^ (x >> np.uint64(32))
    return x


def _estimate_exact(hist, p: int) -> float:
    """HLL estimate from a register-value histogram with the harmonic
    sum kept as an EXACT integer S = Σ count_k · 2^(64−k) (absent
    registers are k = 0), so the float chain is reproducible
    term-for-term by a SQL twin (same literal order of operations)."""
    import math
    m = 1 << p
    alpha = 0.7213 / (1 + 1.079 / float(m))
    S = 0
    for k, c in enumerate(hist):
        if c:
            S += int(c) << (64 - k)
    est = alpha * float(m) * float(m) \
        * 18446744073709551616.0 / float(S)
    zeros = int(hist[0]) if len(hist) else 0
    if est <= 2.5 * float(m) and zeros > 0:
        est = float(m) * math.log(float(m) / zeros)
    return est


def _registers_for(h: np.ndarray, p: int) -> np.ndarray:
    m = 1 << p
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rem = h & np.uint64((1 << (64 - p)) - 1)
    # rank = leading-zero count of the (64-p)-bit remainder + 1.
    # frexp's exponent IS bit_length for integers ≤ 2^52 (exact in
    # float64; 64-p = 50 bits here), so no log2 rounding hazard.
    _, exp = np.frexp(rem.astype(np.float64))
    rho = np.where(rem > 0, (64 - p) + 1 - exp, (64 - p) + 1) \
        .astype(np.uint8)
    regs = np.zeros(m, dtype=np.uint8)
    np.maximum.at(regs, idx, rho)
    return regs


def _estimate(regs: np.ndarray, p: int) -> float:
    m = float(1 << p)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(2.0 ** -regs.astype(np.float64))
    zeros = int(np.count_nonzero(regs == 0))
    if est <= 2.5 * m and zeros > 0:
        est = m * np.log(m / zeros)  # linear counting regime
    return float(est)


def build_bloom(keys_ds, on: str, n_keys: int, bits_per_key: int = 10,
                num_hashes: int = 7) -> tuple[np.ndarray, int]:
    """Mergeable Bloom filter of a key column: each block ORs its keys
    into a fixed bitmap (double hashing h1 + i·h2 over the process-stable
    siphash), the driver ORs the per-block rows.  Bitmap size is the next
    power of two ≥ n_keys·bits_per_key (~1 % false positives at 10/7).
    Returns (packed uint8 bitmap, bit count m)."""
    m = 1 << max(10, int(np.ceil(np.log2(max(1, n_keys) * bits_per_key))))
    mask = np.uint64(m - 1)

    def block_bloom(batch: pa.Table) -> pa.Table:
        h1 = _hash_u64(batch[on])
        with np.errstate(over="ignore"):
            h2 = h1 * np.uint64(0x9E3779B97F4A7C15) | np.uint64(1)
        bits = np.zeros(m, dtype=bool)
        for i in range(num_hashes):
            with np.errstate(over="ignore"):
                bits[((h1 + np.uint64(i) * h2) & mask).astype(np.int64)] = True
        return pa.table({"bloom": pa.array([np.packbits(bits).tobytes()],
                                           type=pa.binary())})

    merged = np.zeros(m // 8, dtype=np.uint8)
    parts = keys_ds.map_batches(block_bloom, batch_format="pyarrow",
                                batch_size=None)
    for b in parts.iter_batches(batch_format="pyarrow"):
        for buf in b["bloom"].to_pylist():
            np.bitwise_or(merged, np.frombuffer(buf, dtype=np.uint8),
                          out=merged)
    return merged, m


def bloom_semi_join(big_ds, keys_ds, on: str, bits_per_key: int = 10,
                    num_hashes: int = 7):
    """EXACT semi join with a Bloom pre-filter: the keys side folds to a
    fixed-size bitmap (no broadcast of the keys themselves), every big-
    side batch drops rows that can't match BEFORE the shuffle, and the
    surviving ~|matches|·(1+fp) rows go through the exact bucketed semi
    join.  Same result as ``bucketed_semi_join`` (the exact pass removes
    Bloom false positives); the win is shuffle volume — when the semi
    join is selective, the exchange shrinks by the selectivity factor at
    the cost of one fixed-size bitmap broadcast."""
    import ray

    from .relational import bucketed_semi_join
    n_keys = keys_ds.count()
    bitmap, m = build_bloom(keys_ds, on, n_keys, bits_per_key, num_hashes)
    bm_ref = ray.put(bitmap)
    mask = np.uint64(m - 1)

    def prefilter(batch: pa.Table) -> pa.Table:
        bm = np.unpackbits(ray.get(bm_ref)).astype(bool)
        h1 = _hash_u64(batch[on])
        with np.errstate(over="ignore"):
            h2 = h1 * np.uint64(0x9E3779B97F4A7C15) | np.uint64(1)
        keep = np.ones(len(h1), dtype=bool)
        for i in range(num_hashes):
            with np.errstate(over="ignore"):
                keep &= bm[((h1 + np.uint64(i) * h2) & mask)
                           .astype(np.int64)]
        return batch.filter(pa.array(keep))

    survivors = big_ds.map_batches(prefilter, batch_format="pyarrow")
    return bucketed_semi_join(survivors, keys_ds, on)


def approx_distinct(ds, key_col: str, p: int = 14,
                    hasher: str = "pandas") -> pa.Table:
    """Approximate COUNT(DISTINCT key_col) over a Dataset.

    One pass: per-BLOCK sketch rows (``batch_size=None`` so each block
    folds to exactly one 2^p-byte row), driver max-merges the #blocks
    sketches.  Returns a one-row arrow table
    ``(approx_distinct: int64, registers_nonzero: int64)``; the estimate
    is rounded to int (deterministic — see module docstring).

    ``hasher="duckdb"`` switches to DuckDB's own integer hash and the
    exact-integer harmonic sum, making the whole estimate reproducible
    by a value-level SQL twin (see queries.SQL_HLL_USERS)."""
    hash_fn = _hash_u64_duckdb if hasher == "duckdb" else _hash_u64

    def block_sketch(batch: pa.Table) -> pa.Table:
        regs = _registers_for(hash_fn(batch[key_col]), p)
        return pa.table({"regs": pa.array([regs.tobytes()],
                                          type=pa.binary())})

    merged = np.zeros(1 << p, dtype=np.uint8)
    parts = ds.map_batches(block_sketch, batch_format="pyarrow",
                           batch_size=None)
    for b in parts.iter_batches(batch_format="pyarrow"):
        for buf in b["regs"].to_pylist():
            np.maximum(merged, np.frombuffer(buf, dtype=np.uint8),
                       out=merged)
    if hasher == "duckdb":
        est = _estimate_exact(np.bincount(
            merged.astype(np.int64)).tolist(), p)
    else:
        est = _estimate(merged, p)
    return pa.table({
        "approx_distinct": pa.array([int(round(est))],
                                    type=pa.int64()),
        "registers_nonzero": pa.array(
            [int(np.count_nonzero(merged))], type=pa.int64()),
    })


def approx_quantiles(ds, val_col: str, qs: list[float],
                     rel_err: float = 0.01, v_min: float = 1e-6,
                     v_max: float = 1e12) -> pa.Table:
    """One-pass approximate quantiles via a fixed LOG-SPACED histogram
    (HDR-histogram style): every block folds its positive values into the
    same ~log(v_max/v_min)/log(1+2·rel_err) bins, per-block counts
    sum-merge associatively, and quantiles read off the cumulative counts
    as bin LOWER BOUNDS — so any partitioning yields the identical answer
    (rows-only determinism across parallelism, like the HLL sketch) and
    the value error is bounded by the bin's relative width (≤ 2·rel_err).

    The scale path when ``grouped_quantile_disc``'s exact two-pass
    selection is too expensive: one streaming pass, a few-KB sketch per
    block, no re-scan.  Values outside [v_min, v_max] clamp into the edge
    bins (documented saturation, counted not dropped)."""
    base = 1.0 + 2.0 * rel_err
    nbins = int(np.ceil(np.log(v_max / v_min) / np.log(base))) + 2
    lo = np.log(v_min)
    lb = np.log(base)

    def block_hist(batch: pa.Table) -> pa.Table:
        v = batch[val_col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        idx = np.clip(((np.log(np.maximum(v, v_min)) - lo) / lb) + 1,
                      1, nbins - 1).astype(np.int64)
        idx[v < v_min] = 0
        counts = np.bincount(idx, minlength=nbins)
        return pa.table({"hist": pa.array([counts]),
                         "n": pa.array([len(v)], type=pa.int64())})

    parts = ds.map_batches(block_hist, batch_format="pyarrow").take_all()
    hist = np.zeros(nbins, dtype=np.int64)
    total = 0
    for r in parts:
        hist += np.asarray(r["hist"], dtype=np.int64)
        total += r["n"]
    cum = np.cumsum(hist)
    out_q, out_v = [], []
    for q in qs:
        target = max(1, int(np.ceil(q * total)))
        b = int(np.searchsorted(cum, target))
        # bin lower bound (bin 0 = saturated-below, reports v_min)
        val = v_min if b == 0 else float(np.exp(lo + (b - 1) * lb))
        out_q.append(float(q))
        out_v.append(val)
    return pa.table({"q": pa.array(out_q, type=pa.float64()),
                     "value": pa.array(out_v, type=pa.float64()),
                     "n": pa.array([total] * len(qs), type=pa.int64())})


def grouped_approx_quantiles(ds, key_col: str, val_col: str,
                             qs: list[float], rel_err: float = 0.01,
                             v_min: float = 1e-6, v_max: float = 1e12):
    """Per-key approximate quantiles via the same fixed log-binned
    histogram as ``approx_quantiles``, distributed: each batch emits
    (key, bin) partial counts (already collapsed arrow-side), ONE narrow
    groupby-sum shuffle, then a vectorized per-key cumulative selection.
    The 100-TB path when ``grouped_quantile_disc``'s exact two-pass
    re-scan is too expensive: counts sum-merge associatively, so the
    answer is partition-invariant; value error ≤ the bin's relative
    width (≤ 2·rel_err)."""
    from ray.data.aggregate import Sum

    base = 1.0 + 2.0 * rel_err
    nbins = int(np.ceil(np.log(v_max / v_min) / np.log(base))) + 2
    lo = np.log(v_min)
    lb = np.log(base)

    def partial(t: pa.Table) -> pa.Table:
        v = t[val_col].to_numpy(zero_copy_only=False).astype(np.float64)
        k = t[key_col]
        ok = ~np.isnan(v)
        idx = np.clip(((np.log(np.maximum(v, v_min)) - lo) / lb) + 1,
                      1, nbins - 1).astype(np.int64)
        idx[v < v_min] = 0
        g = pa.table({key_col: k.filter(pa.array(ok)),
                      "bin": pa.array(idx[ok])}) \
            .group_by([key_col, "bin"]).aggregate([([], "count_all")])
        return pa.table({key_col: g[key_col], "bin": g["bin"],
                         "pn": g["count_all"].cast(pa.int64())})

    counts = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby([key_col, "bin"]).aggregate(Sum("pn", alias_name="n"))

    def select(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values([key_col, "bin"])
        keys_out, q_out, v_out, n_out = [], [], [], []
        for key, g in df.groupby(key_col, sort=False):
            cum = g["n"].cumsum().to_numpy()
            bins = g["bin"].to_numpy()
            total = int(cum[-1])
            for q in qs:
                target = max(1, int(np.ceil(q * total)))
                b = int(bins[np.searchsorted(cum, target)])
                val = v_min if b == 0 else float(np.exp(lo + (b - 1) * lb))
                keys_out.append(key)
                q_out.append(float(q))
                v_out.append(val)
                n_out.append(total)
        return pa.table({key_col: pa.array(keys_out),
                         "q": pa.array(q_out, type=pa.float64()),
                         "value": pa.array(v_out, type=pa.float64()),
                         "n": pa.array(n_out, type=pa.int64())})

    # the histogram is (keys × occupied bins) rows — selection is a tiny
    # single table
    from .relational import ds_to_table
    return select(ds_to_table(counts))


def grouped_approx_distinct(ds, group_col: str, key_col: str,
                            p: int = 14,
                            hasher: str = "pandas") -> "object":
    """Per-group approximate COUNT(DISTINCT key): HLL in SPARSE register
    form — each batch emits (group, register, rho) rows already
    max-collapsed arrow-side (≤ one row per register the batch touched,
    never the 2^p dense array per group), ONE narrow groupby-max shuffle,
    then a vectorized per-group estimate (absent registers are zeros, so
    V = m − n_present feeds the linear-counting regime).  Max-merge is
    associative ⇒ partition-invariant; error ≈ 1.04/√(2^p)."""
    from ray.data.aggregate import Max
    hash_fn = _hash_u64_duckdb if hasher == "duckdb" else _hash_u64

    def partial(t: pa.Table) -> pa.Table:
        h = hash_fn(t[key_col])
        idx = (h >> np.uint64(64 - p)).astype(np.int64)
        rem = h & np.uint64((1 << (64 - p)) - 1)
        _, exp = np.frexp(rem.astype(np.float64))
        rho = np.where(rem > 0, (64 - p) + 1 - exp, (64 - p) + 1) \
            .astype(np.int64)
        g = pa.table({group_col: t[group_col],
                      "reg": pa.array(idx), "rho": pa.array(rho)}) \
            .group_by([group_col, "reg"]).aggregate([("rho", "max")])
        return pa.table({group_col: g[group_col], "reg": g["reg"],
                         "prho": g["rho_max"].cast(pa.int64())})

    sparse = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby([group_col, "reg"]).aggregate(Max("prho",
                                                   alias_name="rho"))

    def estimate(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        m = float(1 << p)
        alpha = 0.7213 / (1 + 1.079 / m)
        groups, ests, nz = [], [], []
        for gk, g in df.groupby(group_col, sort=False):
            rho = g["rho"].to_numpy(dtype=np.int64)
            n_present = len(rho)
            if hasher == "duckdb":
                hist = np.bincount(rho, minlength=1)
                hist[0] += (1 << p) - n_present  # absent regs
                est = _estimate_exact(hist.tolist(), p)
            else:
                s = np.sum(2.0 ** -rho.astype(np.float64)) \
                    + (m - n_present)              # absent regs = 2^0
                est = alpha * m * m / s
                zeros = int(m) - n_present
                if est <= 2.5 * m and zeros > 0:
                    est = m * np.log(m / zeros)
            groups.append(gk)
            ests.append(int(round(est)))
            nz.append(n_present)
        return pa.table({group_col: pa.array(groups),
                         "approx_distinct": pa.array(ests,
                                                     type=pa.int64()),
                         "registers_nonzero": pa.array(nz,
                                                       type=pa.int64())})

    # the sparse table is (groups × touched registers) — estimate on one
    # small table (groups are few; register count ≤ 2^p per group)
    from .relational import ds_to_table
    return estimate(ds_to_table(sparse))


# ------------------------------------------------------ Misra-Gries

def _mg_compress(words: np.ndarray, counts: np.ndarray,
                 capacity: int) -> tuple[np.ndarray, np.ndarray]:
    """Compress a (word, count) summary to <= ``capacity`` entries by
    subtracting the (capacity+1)-th largest count from every counter and
    dropping the non-positive ones — the Misra-Gries reduce step of
    Agarwal et al., 'Mergeable Summaries' (PODS 2012).  Counts become
    lower bounds; total undercount across an arbitrary merge tree is
    <= N/(capacity+1)."""
    if len(counts) <= capacity:
        return words, counts
    thresh = np.partition(counts, -(capacity + 1))[-(capacity + 1)]
    c2 = counts - thresh
    keep = c2 > 0
    return words[keep], c2[keep]


def mg_word_summary(ds, text_col: str = "text",
                    capacity: int = 4096) -> pa.Table:
    """Misra-Gries heavy-hitter summary over the corpus word stream:
    (word, n) with n a LOWER-BOUND count, undercount <= N/(capacity+1).
    Every word with true frequency > N/(capacity+1) is guaranteed present.

    Scale shape: per-batch exact counts compress to <= capacity rows (so
    shuffle width is bounded by capacity x batches regardless of
    vocabulary size); one groupby-sum consolidates each word; per-block
    compress bounds the driver merge to <= capacity x blocks rows; one
    final compress.  With ``capacity`` >= the distinct vocabulary of
    every batch no decrement ever fires and the summary is EXACT (the
    oracle-checked configuration)."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    from .relational import ds_to_table

    def partial(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(
            pc.split_pattern(batch[text_col], pattern=" "))
        g = pa.table({"word": flat}).group_by("word") \
            .aggregate([("word", "count")])
        w = np.asarray(g["word"], dtype=object)
        c = g["word_count"].to_numpy(zero_copy_only=False).astype(np.int64)
        w, c = _mg_compress(w, c, capacity)
        return pa.table({"word": pa.array(w, type=pa.string()),
                         "pcnt": pa.array(c)})

    merged = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("word").aggregate(Sum("pcnt", alias_name="n"))

    def block_compress(t: pa.Table) -> pa.Table:
        w = np.asarray(t["word"], dtype=object)
        c = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        w, c = _mg_compress(w, c, capacity)
        return pa.table({"word": pa.array(w, type=pa.string()),
                         "n": pa.array(c)})

    t = ds_to_table(merged.map_batches(block_compress,
                                       batch_format="pyarrow"))
    w = np.asarray(t["word"], dtype=object)
    c = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    w, c = _mg_compress(w, c, capacity)
    return pa.table({"word": pa.array(w, type=pa.string()),
                     "n": pa.array(c)})


def heavy_hitter_words(ds, text_col: str = "text", k: int = 20,
                       capacity: int = 4096) -> pa.Table:
    """Top-k words by Misra-Gries estimated count (ties break by word
    ascending) — the bounded-memory scale path for corpus top-k when the
    vocabulary itself is too wide to shuffle."""
    t = mg_word_summary(ds, text_col=text_col, capacity=capacity)
    return t.sort_by([("n", "descending"), ("word", "ascending")]) \
        .slice(0, k)


def hll_overlap_matrix(ds, group_col: str, key_col: str,
                       p: int = 14) -> pa.Table:
    """Sketch ALGEBRA over the per-group HLLs: approximate
    |distinct(A)|, |distinct(B)|, |A ∪ B| (register-wise max — the HLL
    union is lossless), and the inclusion-exclusion overlap estimate
    |A ∩ B| ≈ a + b − ab for every unordered group pair.  The audience-
    overlap question ("how many users do CLICK and PURCHASE share?")
    answered from ONE pass over the data: the sparse register table is
    (groups × ≤2^p) rows however large the input, and every pairwise
    union is a driver-side max-merge of two register vectors.

    Same determinism/error envelope as ``grouped_approx_distinct``
    (max-merge associative ⇒ partition-invariant; ≈1.04/√(2^p))."""
    from ray.data.aggregate import Max

    from .relational import ds_to_table

    def partial(t: pa.Table) -> pa.Table:
        h = _hash_u64(t[key_col])
        idx = (h >> np.uint64(64 - p)).astype(np.int64)
        rem = h & np.uint64((1 << (64 - p)) - 1)
        _, exp = np.frexp(rem.astype(np.float64))
        rho = np.where(rem > 0, (64 - p) + 1 - exp, (64 - p) + 1) \
            .astype(np.int64)
        g = pa.table({group_col: t[group_col],
                      "reg": pa.array(idx), "rho": pa.array(rho)}) \
            .group_by([group_col, "reg"]).aggregate([("rho", "max")])
        return pa.table({group_col: g[group_col], "reg": g["reg"],
                         "prho": g["rho_max"].cast(pa.int64())})

    sparse = ds_to_table(
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby([group_col, "reg"])
        .aggregate(Max("prho", alias_name="rho"))).to_pandas()

    m = float(1 << p)
    alpha = 0.7213 / (1 + 1.079 / m)

    def est(regs: dict) -> int:
        n_present = len(regs)
        s = float(np.sum(2.0 ** -np.fromiter(regs.values(), float,
                                             n_present))) \
            + (m - n_present)
        e = alpha * m * m / s
        zeros = int(m) - n_present
        if e <= 2.5 * m and zeros > 0:
            e = m * np.log(m / zeros)
        return int(round(e))

    by_group = {
        gk: dict(zip(g["reg"].to_numpy(), g["rho"].to_numpy()))
        for gk, g in sparse.groupby(group_col, sort=False)}
    names = sorted(by_group)
    rows = []
    for i, ga in enumerate(names):
        for gb in names[i + 1:]:
            ra, rb = by_group[ga], by_group[gb]
            ru = dict(ra)
            for k, v in rb.items():
                if ru.get(k, 0) < v:
                    ru[k] = v
            a, b, u = est(ra), est(rb), est(ru)
            rows.append((ga, gb, a, b, u, max(0, a + b - u)))
    return pa.table({
        "group_a": pa.array([r[0] for r in rows]),
        "group_b": pa.array([r[1] for r in rows]),
        "approx_a": pa.array([r[2] for r in rows], type=pa.int64()),
        "approx_b": pa.array([r[3] for r in rows], type=pa.int64()),
        "approx_union": pa.array([r[4] for r in rows], type=pa.int64()),
        "approx_overlap": pa.array([r[5] for r in rows],
                                   type=pa.int64())})


def build_file_blooms(files: list[str], on: str, m_bits: int = 8192,
                      num_hashes: int = 5) -> dict[str, np.ndarray]:
    """Per-FILE Bloom filters over a key column — the point-lookup
    complement of zone maps: min/max statistics skip files when the
    layout is CLUSTERED on the predicate column, Blooms skip files for
    equality probes on any OTHER (unclustered, high-cardinality)
    column, where every file's [min, max] spans the whole domain.

    Distributed build: one projected read of the key column with
    ``include_paths``; each batch ORs its keys into an m-bit bitmap per
    file it touches (double hashing h1 + i·h2 over the process-stable
    siphash — the same family as ``build_bloom``, so merge is
    associative and partitioning-invariant); the driver ORs the
    files-bounded partial rows.  1 KiB per file at the default m, so a
    10⁶-file table's sidecar is ~1 GiB — broadcastable, never shuffled.

    Returns {file_path: packed uint8 bitmap}.
    """
    import ray.data as rd

    if m_bits & (m_bits - 1):
        raise ValueError("m_bits must be a power of two (mask indexing)")
    ds = rd.read_parquet(files, columns=[on], include_paths=True)

    def block_blooms(batch: pa.Table) -> pa.Table:
        paths = batch["path"].to_numpy(zero_copy_only=False)
        h1 = _hash_u64(batch[on])
        with np.errstate(over="ignore"):
            h2 = h1 * np.uint64(0x9E3779B97F4A7C15) | np.uint64(1)
        out_p, out_b = [], []
        for p in np.unique(paths):
            sel = paths == p
            bits = np.zeros(m_bits, dtype=bool)
            with np.errstate(over="ignore"):
                for i in range(num_hashes):
                    bits[((h1[sel] + np.uint64(i) * h2[sel])
                          & np.uint64(m_bits - 1)).astype(np.int64)] = True
            out_p.append(str(p))
            out_b.append(np.packbits(bits).tobytes())
        return pa.table({"path": pa.array(out_p),
                         "bloom": pa.array(out_b, type=pa.binary())})

    blooms: dict[str, np.ndarray] = {}
    parts = ds.map_batches(block_blooms, batch_format="pyarrow",
                           batch_size=None)
    for b in parts.iter_batches(batch_format="pyarrow"):
        for p, buf in zip(b["path"].to_pylist(), b["bloom"].to_pylist()):
            cur = blooms.setdefault(p, np.zeros(m_bits // 8,
                                                dtype=np.uint8))
            np.bitwise_or(cur, np.frombuffer(buf, dtype=np.uint8),
                          out=cur)
    return blooms


def bloom_may_contain(bitmap: np.ndarray, key, m_bits: int,
                      num_hashes: int = 5) -> bool:
    """Membership probe against one packed per-file bitmap (no false
    negatives: a True-containing file always passes)."""
    h1 = _hash_u64(pa.array([key]))
    with np.errstate(over="ignore"):
        h2 = h1 * np.uint64(0x9E3779B97F4A7C15) | np.uint64(1)
        idx = [int((h1[0] + np.uint64(i) * h2[0])
                   & np.uint64(m_bits - 1))
               for i in range(num_hashes)]
    bits = np.unpackbits(bitmap)
    return all(bits[i] for i in idx)
