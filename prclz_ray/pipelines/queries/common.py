"""Table readers and small helpers shared by more than one query family."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ...stages import dedup as dd
from ...stages import relational


def _points_batch(batch: pa.Table, key: str) -> pa.Table:
    k = batch[key].to_numpy(zero_copy_only=False).astype(np.int64)
    px = (k * 7919) % 1000 + 0.5
    py = (k * 104729) % 1000 + 0.5
    out = batch.append_column("px", pa.array(px.astype(np.float64)))
    return out.append_column("py", pa.array(py.astype(np.float64)))


def _round2(df: pd.DataFrame, cols) -> pd.DataFrame:
    for c in cols:
        df[c] = df[c].round(2)
    return df


def _read(sf_dir: str, table: str, columns=None, filter=None):
    """Column-pruned (and optionally predicate-pushed) parquet read.
    ``filter`` is a pyarrow.dataset expression evaluated INSIDE the
    scan — row groups whose statistics exclude the predicate never
    leave storage, the difference between reading a month and reading
    seven years at 100 TB."""
    return rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns,
                           filter=filter)


def _read_table(sf_dir: str, table: str, columns=None) -> pa.Table:
    """Direct parquet read for DIMENSION tables that the query
    materializes driver-side anyway (region/nation/supplier maps):
    same memory footprint as ``ds_to_table(_read(...))`` but skips a
    whole Ray execution's scheduling latency (~0.3-0.5 s each — q5/q7/
    q8 pay it three times over)."""
    import pyarrow.parquet as pq
    return pq.read_table(f"{sf_dir}/{table}.parquet", columns=columns)


_SEM_K, _SEM_DIM, _SEM_SEED = 8, 64, 7


def _doc_features(sf_dir: str):
    docs = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])

    def feats(batch: pa.Table) -> pa.Table:
        x1 = batch["n_chars"].to_numpy(zero_copy_only=False) \
            .astype(np.float64) / 1000.0
        x2 = pc.list_value_length(
            pc.split_pattern(batch["text"], pattern=" ")) \
            .to_numpy(zero_copy_only=False).astype(np.float64) / 100.0
        lbl = (batch["doc_id"].to_numpy(zero_copy_only=False) % 3 == 0) \
            .astype(np.float64)
        return pa.table({"doc_id": batch["doc_id"], "x1": pa.array(x1),
                         "x2": pa.array(x2), "label": pa.array(lbl)})

    return docs.map_batches(feats, batch_format="pyarrow")


def _fuzzy_entity_nm(t: pa.Table) -> pa.Array:
    """Entity display name: p_name || ' #' || zero-padded key — the
    high-entropy tail makes blocking selective while the word head keeps
    realistic fuzzy collisions."""
    key_s = pc.cast(t["p_partkey"], pa.string())
    pad = pc.utf8_lpad(key_s, 6, "0")
    return pc.binary_join_element_wise(
        t["p_name"].combine_chunks().cast(pa.string()), " #", pad, "")


def _fuzzy_sides(sf_dir: str):
    """Clean vs dirty entity tables for record linkage: the dirty side
    applies ONE deterministic golden-hash edit per record (delete /
    substitute-'q' / identity at position (h//3) % len) so the DuckDB
    twin reconstructs the identical corrupted catalog."""
    part = _read(sf_dir, "part", ["p_partkey", "p_name"])
    mix = np.uint64(relational.SAMPLE_MIX)

    def clean_b(t: pa.Table) -> pa.Table:
        return pa.table({
            "id": t["p_partkey"].combine_chunks().cast(pa.int64()),
            "nm": _fuzzy_entity_nm(t)})

    def dirty_b(t: pa.Table) -> pa.Table:
        keys = t["p_partkey"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        nms = _fuzzy_entity_nm(t).to_pylist()
        with np.errstate(over="ignore"):
            h = (keys + np.uint64(1)) * mix
        op = (h % np.uint64(3)).astype(np.int64)
        lens = np.fromiter((len(s) for s in nms), np.uint64, len(nms))
        pos = ((h // np.uint64(3)) % np.maximum(lens, 1)).astype(np.int64)
        out = []
        # bounded per-row string surgery: fixture enrichment, not the
        # operator hot path (the join verifies via batch_edit_distance)
        for nm, o, p in zip(nms, op, pos):
            if o == 0:
                out.append(nm[:p] + nm[p + 1:])
            elif o == 1:
                out.append(nm[:p] + "q" + nm[p + 1:])
            else:
                out.append(nm)
        return pa.table({
            "id": pa.array(keys.astype(np.int64) + 1_000_000,
                           type=pa.int64()),
            "nm": pa.array(out, type=pa.string())})

    return (part.map_batches(clean_b, batch_format="pyarrow"),
            part.map_batches(dirty_b, batch_format="pyarrow"))


def q_fuzzy_match_pairs(sf_dir: str):
    """Blocked fuzzy join (record linkage): clean catalog x corrupted
    catalog, prefix-6 + suffix-6 multi-pass blocking, vectorized
    Levenshtein verify at distance <= 1.  For single-edit corruption on
    names >= 12 chars the two-pass blocking is recall-COMPLETE (one edit
    cannot alter both windows), so the oracle's blocked join enumerates
    the identical pair set."""
    from ...stages import fuzzy
    clean, dirty = _fuzzy_sides(sf_dir)
    return fuzzy.blocked_fuzzy_pairs(clean, dirty, id_col="id",
                                     text_col="nm", max_dist=1,
                                     block_len=6)


_FUZZY_LABELS_MEMO: dict = {}


def _fuzzy_cluster_labels(sf_dir: str) -> pd.DataFrame:
    """Resolved (node, label) entity clusters, memoized per input
    fingerprint — the fuzzy blocking + Levenshtein verify + connected
    components run ONCE per corpus and feed both the clusters query
    and the golden-record survivorship (same pattern as the LangId
    confusion memo)."""
    from ...stages import fuzzy
    memo_key = _fingerprint_cache_dir(sf_dir, "part", "fuzzylbl")
    hit = _FUZZY_LABELS_MEMO.get(memo_key)
    if hit is not None:
        return hit.copy()
    clean, dirty = _fuzzy_sides(sf_dir)
    pairs = fuzzy.blocked_fuzzy_pairs(clean, dirty, id_col="id",
                                      text_col="nm", max_dist=1,
                                      block_len=6)
    out = dd.connected_components(
        pairs.select_columns(["a", "b"])).to_pandas()
    _FUZZY_LABELS_MEMO.clear()         # one entry: bounded memory
    _FUZZY_LABELS_MEMO[memo_key] = out.copy()
    return out


def _doc_logreg_scored(sf_dir: str):
    """Shared logreg-scored document Dataset (6-dp sigmoid ``score`` +
    length-derived ``label``) behind the classifier-evaluation family
    (AUC, ROC operating points, Brier decomposition): one feature
    extraction + scoring definition so every metric evaluates the SAME
    model, and the 6-dp quantization keeps downstream score groupbys
    bounded AND the SQL twins bit-mirrorable."""
    from ...stages import ml
    docs = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])

    def feats(batch: pa.Table) -> pa.Table:
        nch = batch["n_chars"].to_numpy(zero_copy_only=False)
        x1 = nch.astype(np.float64) / 1000.0
        x2 = pc.list_value_length(
            pc.split_pattern(batch["text"], pattern=" ")) \
            .to_numpy(zero_copy_only=False).astype(np.float64) / 100.0
        lbl = (nch > 297).astype(np.int64)
        return pa.table({"doc_id": batch["doc_id"],
                         "x1": pa.array(x1), "x2": pa.array(x2),
                         "label": pa.array(lbl)})

    return ml.logreg_score(docs.map_batches(feats,
                                            batch_format="pyarrow"),
                           ["x1", "x2"], weights=[0.8, -0.5], bias=0.25)


SQL_FUZZY_BASE = """
WITH RECURSIVE clean AS (
  SELECT p_partkey AS id,
         p_name || ' #' || lpad(CAST(p_partkey AS VARCHAR), 6, '0') AS nm
  FROM part),
hv AS (
  SELECT id, nm,
         ((CAST(id + 1 AS HUGEINT) * 11400714819323198485)
          % 18446744073709551616) AS h
  FROM clean),
dirty AS (
  SELECT id + 1000000 AS id,
         CASE WHEN h % 3 = 0 THEN
                substr(nm, 1, CAST((h // 3) % length(nm) AS INT))
                || substr(nm, CAST((h // 3) % length(nm) AS INT) + 2)
              WHEN h % 3 = 1 THEN
                substr(nm, 1, CAST((h // 3) % length(nm) AS INT))
                || 'q' || substr(nm, CAST((h // 3) % length(nm) AS INT) + 2)
              ELSE nm END AS nm
  FROM hv),
pairs AS (
  SELECT c.id AS a, d.id AS b,
         CAST(levenshtein(c.nm, d.nm) AS BIGINT) AS dist
  FROM clean c JOIN dirty d
    ON (substr(c.nm, 1, 6) = substr(d.nm, 1, 6)
        OR substr(c.nm, length(c.nm) - 5) = substr(d.nm, length(d.nm) - 5))
  WHERE levenshtein(c.nm, d.nm) <= 1)
"""

SQL_FUZZY_CLUSTERS = SQL_FUZZY_BASE + """,
sym AS (SELECT a, b FROM pairs UNION ALL SELECT b AS a, a AS b FROM pairs),
reach(node, anc) AS (
  SELECT a, b FROM sym
  UNION
  SELECT r.node, s.b FROM reach r JOIN sym s ON s.a = r.anc)
SELECT node, MIN(lbl) AS label FROM (
  SELECT node, node AS lbl
  FROM (SELECT a AS node FROM pairs UNION SELECT b AS node FROM pairs)
  UNION ALL
  SELECT node, anc AS lbl FROM reach)
GROUP BY node
"""


def _daily_revenue_cents(sf_dir: str) -> pd.DataFrame:
    """Shared daily exact-cents revenue reduce (epoch day → Σ cents):
    per-batch pandas partials → one day-keyed groupby.  ONE home for
    the cents-rounding / epoch-day kernel used by the ACF, CUSUM,
    drawdown, seasonality and control-chart series ops — the SQL twins
    all mirror this exact text."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        day = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) // 86_400_000_000
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"day": day, "pc_": cents}) \
            .groupby("day", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    return relational.ds_to_table(
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby("day").aggregate(Sum("pc_", alias_name="rev"))
    ).to_pandas().sort_values("day").reset_index(drop=True)


def _fingerprint_cache_dir(sf_dir: str, table: str, kind: str) -> str:
    """Content-fingerprinted /tmp cache path for format-roundtrip
    queries (``checkpoint.input_fingerprint`` over the table's input
    files: regenerated fixtures get a fresh dir, and the stale one is
    evicted).  Build it with ``checkpoint.publish_dir``."""
    import glob
    import os

    from ...runtime.checkpoint import fingerprinted_dir, input_fingerprint
    fp = input_fingerprint(glob.glob(os.path.join(sf_dir, f"{table}*")))
    tag = os.path.basename(os.path.normpath(sf_dir))
    return fingerprinted_dir(f"/tmp/prclz_ray_{kind}_{tag}", fp[:12])


def _synthetic_links(sf_dir: str):
    """The deterministic 3-out synthetic link graph shared by the
    pagerank / triangle / k-core query family (src·7919 + k·104729
    mod n) — reproduced as a CTE in every SQL twin."""
    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()

    def edges(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        src = np.repeat(d, 3)
        k = np.tile(np.array([1, 2, 3], dtype=np.int64), len(d))
        dst = (src * 7919 + k * 104729) % n
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    return docs.map_batches(edges, batch_format="pyarrow"), n


_SQL_LINKS_CTE = """
raw AS (
  SELECT doc_id AS src,
         (doc_id * 7919 + k * 104729)
           % (SELECT COUNT(*) FROM documents) AS dst
  FROM documents
  CROSS JOIN (VALUES (1), (2), (3)) t(k)),
und AS (SELECT DISTINCT LEAST(src, dst) AS a, GREATEST(src, dst) AS b
        FROM raw WHERE src <> dst),
sym AS (SELECT a AS u, b AS v FROM und
        UNION ALL SELECT b, a FROM und)
"""


def _sym_adjacency(t: pa.Table) -> pa.Table:
    """(pivot, leaf) symmetric adjacency rows from an (ea, eb)
    undirected edge table — shared by the link-prediction family."""
    a = t["ea"].to_numpy(zero_copy_only=False)
    b = t["eb"].to_numpy(zero_copy_only=False)
    return pa.table({
        "pivot": pa.array(np.concatenate([a, b])),
        "leaf": pa.array(np.concatenate([b, a]))})


def _morton_interleave(x: np.ndarray, y: np.ndarray,
                       bits: int = 10) -> np.ndarray:
    """Vectorized bit-interleave (the same 10-bit kernel as
    q_morton_index_points, factored for reuse by the z-order layout)."""
    z = np.zeros(len(x), dtype=np.int64)
    for i in range(bits):
        z |= ((x >> i) & 1) << (2 * i)
        z |= ((y >> i) & 1) << (2 * i + 1)
    return z


_RIPLEY_RADII = (5, 10, 15, 20, 25)


def _sql_minhash_sig_prefix() -> str:
    """Shared CTE prefix (signatures + sampled pairs + exact-jaccard
    tables) for the MinHash fidelity and LSH-planner twins: the
    (a, b) permutation coefficients regenerate from the SAME seeded
    generator the MinHasher stage uses (np.default_rng(7)), and the
    mix reproduces numpy's uint64 wraparound ((a·h) % 2⁶⁴ + b) % 2⁶⁴
    before the Mersenne mod."""
    rng = np.random.default_rng(7)
    M61 = (1 << 61) - 1
    a = rng.integers(1, M61, 64, dtype=np.uint64)
    b = rng.integers(0, M61, 64, dtype=np.uint64)
    perms = ", ".join(f"({i}, {int(a[i])}, {int(b[i])})"
                      for i in range(64))
    M = 1 << 64
    prime = 1099511628211
    pows = [pow(prime, 4 - j, M) for j in range(5)]
    taps = [f"(CAST(byte AS HUGEINT) * {pows[0]}) % {M}"] + [
        f"(CAST(lead(byte, {j}) OVER win AS HUGEINT) * {pows[j]}) % {M}"
        for j in range(1, 5)]
    taps_sql = "\n      + ".join(taps)
    return f"""s500 AS (SELECT doc_id, text FROM documents
         WHERE doc_id < 500),
bytes AS (
  SELECT doc_id, CAST(i AS INT) AS i,
         octet_length(encode(text)) AS n,
         CAST('0x' || substr(hex(encode(text)), 2*CAST(i AS INT)-1, 2)
              AS INT) AS byte
  FROM (SELECT doc_id, text,
               unnest(generate_series(1, octet_length(encode(text))))
                 AS i
        FROM s500)),
w AS (
  SELECT doc_id, i, n,
    ( {taps_sql} ) % {M} AS h64
  FROM bytes
  WINDOW win AS (PARTITION BY doc_id ORDER BY i)),
sh AS (SELECT DISTINCT doc_id, h64 % {1 << 61} AS h
       FROM w WHERE i <= n - 4),
perm(pid, a, b) AS (VALUES {perms}),
sig AS (SELECT sh.doc_id, perm.pid,
               MIN((((perm.a * sh.h) % {M} + perm.b) % {M})
                   % {M61}) AS mh
        FROM sh CROSS JOIN perm
        GROUP BY 1, 2),
pairs AS (SELECT doc_id AS a, doc_id + 250 AS b FROM documents
          WHERE doc_id < 250)"""


def q_od_matrix_daily(sf_dir: str):
    """Origin–destination flow matrix over the hourly-cell trajectory
    model (a user occupies cell (31·user + epoch-HOUR) % 25 — the
    finer-grained sibling of the staypoint op's daily cell): per
    (user, day), the FIRST event's cell in (ts, event_id) order is the
    origin and the LAST event's cell the destination, and the matrix
    counts journeys per (o_cell, d_cell) — transport planning's
    canonical summary, here as one coarse user-bucket shuffle (a
    user's days never straddle buckets) with a vectorized
    boundary-flag first/last extraction and ≤625-row per-bucket
    partials into a tiny final reduce."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def day_cells(batch: pa.Table) -> pa.Table:
        us = batch["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        u = batch["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            "user_id": batch["user_id"], "ts": batch["ts"],
            "event_id": batch["event_id"],
            "day": pa.array(us // 86_400_000_000),
            "cell": pa.array((31 * u + us // 3_600_000_000) % 25)})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        df = g.sort_values(["user_id", "day", "ts", "event_id"])
        u = df["user_id"].to_numpy(np.int64)
        day = df["day"].to_numpy(np.int64)
        c = df["cell"].to_numpy(np.int64)
        start = np.ones(len(df), dtype=bool)
        start[1:] = (u[1:] != u[:-1]) | (day[1:] != day[:-1])
        end = np.roll(start, -1)
        out = pd.DataFrame({"o_cell": c[start], "d_cell": c[end],
                            "pn": 1}) \
            .groupby(["o_cell", "d_cell"], sort=False).sum() \
            .reset_index()
        return out

    flows = relational.ds_to_table(
        relational.bucket_shuffle(ev, "user_id", per_bucket,
                                  prepare=day_cells)
        .groupby(["o_cell", "d_cell"]).aggregate(
            Sum("pn", alias_name="n"))
    ).to_pandas().sort_values(["o_cell", "d_cell"]) \
        .reset_index(drop=True)
    return flows.astype({"o_cell": np.int64, "d_cell": np.int64,
                         "n": np.int64})


SQL_OD_MATRIX = """
WITH e AS (SELECT user_id, ts, event_id,
                  epoch_us(ts) // 86400000000 AS day,
                  (31 * user_id
                   + epoch_us(ts) // 3600000000) % 25 AS cell
           FROM events),
r AS (SELECT user_id, day, cell,
             ROW_NUMBER() OVER (PARTITION BY user_id, day
                                ORDER BY ts, event_id) AS rn_a,
             ROW_NUMBER() OVER (PARTITION BY user_id, day
                                ORDER BY ts DESC, event_id DESC)
               AS rn_d
      FROM e),
od AS (SELECT a.cell AS o_cell, b.cell AS d_cell
       FROM r a JOIN r b
         ON a.user_id = b.user_id AND a.day = b.day
        AND a.rn_a = 1 AND b.rn_d = 1)
SELECT o_cell, d_cell, CAST(COUNT(*) AS BIGINT) AS n
FROM od GROUP BY 1, 2 ORDER BY o_cell, d_cell
"""


def _user_event_flags(sf_dir: str, types: tuple):
    """Shared per-user event-type flag reduce: one (user, flags)
    shuffle feeding the attribution / capture-recapture / sketch
    set-op family.  Returns a materialized Dataset with column ``u``
    plus one 0/1 int column per requested type."""
    from ray.data.aggregate import Max
    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def flags(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        cols = {"u": t["user_id"].to_numpy(zero_copy_only=False)}
        for ty in types:
            cols[f"f_{ty}"] = (et == ty).astype(np.int64)
        g = pd.DataFrame(cols).groupby("u", sort=False).max() \
            .reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    return ev.map_batches(flags, batch_format="pyarrow") \
        .groupby("u").aggregate(*[Max(f"f_{ty}", alias_name=f"f_{ty}")
                                  for ty in types]).materialize()


def _click_purchase_value_counts(sf_dir: str) -> pd.DataFrame:
    """Shared (side, cents)-distinct count reduce for the two-sample
    test family (side 0 = click, 1 = purchase) — one bounded shuffle,
    every downstream statistic folds on the driver from counts."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["event_type"],
                        value_set=pa.array(["click", "purchase"]))
        t = t.filter(keep)
        v = np.round(t["value"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        side = pc.equal(t["event_type"], "purchase") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        g = pd.DataFrame({"side": side, "v": v, "c": 1}) \
            .groupby(["side", "v"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    return relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby(["side", "v"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas()


SQL_CP_COUNTS_CTE = """
g AS (SELECT CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END
         AS side,
       CAST(ROUND(value * 100) AS BIGINT) AS v,
       CAST(COUNT(*) AS BIGINT) AS c
      FROM events WHERE event_type IN ('click', 'purchase')
      GROUP BY 1, 2)
"""




def _value_cells_two_groups(sf_dir: str) -> pd.DataFrame:
    """Shared (group, cents, count) reduce for the click-vs-purchase
    two-sample family (MW U / KS / divergence panel) — one narrow
    keyed groupby, value text never shuffles."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        keep = (et == "click") | (et == "purchase")
        v = np.round(t["value"].to_numpy(
            zero_copy_only=False)[keep] * 100.0).astype(np.int64)
        g = pd.DataFrame({"grp": et[keep], "v": v, "c": 1}) \
            .groupby(["grp", "v"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    return relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby(["grp", "v"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
