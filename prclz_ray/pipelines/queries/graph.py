"""Graph queries over the synthetic link graph."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ...stages import dedup as dd
from ...stages import relational
from .common import _SQL_LINKS_CTE, _read, _sym_adjacency, _synthetic_links


def q_triangle_count(sf_dir: str):
    """Distributed triangle counting over the same synthetic link graph
    PageRank uses: degree-ordered edge orientation (wedges enumerated at
    the lower-(deg, id) endpoint only — O(m^1.5) total, skew-proof) via
    the vectorized pair kernel.  Oracle: the classic 3-way self-join."""
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

    tri = graph_ops.triangle_count(
        docs.map_batches(edges, batch_format="pyarrow"))
    return pd.DataFrame([{"n_triangles": tri}])


SQL_TRIANGLES = """
WITH raw AS (
  SELECT doc_id AS src,
         (doc_id * 7919 + k * 104729)
           % (SELECT COUNT(*) FROM documents) AS dst
  FROM documents CROSS JOIN (VALUES (1), (2), (3)) t(k)),
e AS (SELECT DISTINCT LEAST(src, dst) AS a, GREATEST(src, dst) AS b
      FROM raw WHERE src <> dst)
SELECT COUNT(*) AS n_triangles
FROM e e1
JOIN e e2 ON e2.a = e1.b
JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b
"""


def q_pagerank_links(sf_dir: str):
    """Distributed PageRank (3 power-iteration rounds, d=0.85) over a
    deterministic synthetic link graph: every doc links to
    (doc_id*7919 + k*104729) % N for k=1..3.  Per round: one bucketed
    co-shuffle join (edges×ranks on src) + one groupby(dst) sum; ranks
    round to 9dp per round so the float trajectory matches the oracle's
    unrolled CTEs exactly."""
    from ...stages import graph_ops
    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()

    def edges(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.repeat(d, 3)
        k = np.tile(np.array([1, 2, 3], dtype=np.int64), len(d))
        dst = (src * 7919 + k * 104729) % n
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    nodes = docs.map_batches(
        lambda b: pa.table({"v": b["doc_id"]}), batch_format="pyarrow")
    out = graph_ops.pagerank(docs.map_batches(edges, batch_format="pyarrow"),
                             nodes, iters=3, damping=0.85, round_dp=9)
    return out.map_batches(
        lambda b: pa.table({"doc_id": b["v"], "pagerank": b["pagerank"]}),
        batch_format="pyarrow")


SQL_PAGERANK = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
nodes AS (SELECT doc_id AS v FROM documents),
edges AS (
  SELECT d.doc_id AS src,
         (d.doc_id * 7919 + k.k * 104729) % nn.n AS dst
  FROM documents d, (SELECT unnest([1, 2, 3]) AS k) k, nn),
deg AS (SELECT src, COUNT(*) AS outdeg FROM edges GROUP BY src),
r0 AS (SELECT v, ROUND(1.0 / nn.n, 9) AS r FROM nodes, nn),
c1 AS (SELECT e.dst AS v, SUM(r0.r / deg.outdeg) AS c
       FROM edges e JOIN deg USING (src) JOIN r0 ON r0.v = e.src
       GROUP BY e.dst),
r1 AS (SELECT nodes.v,
              ROUND((1 - 0.85) / nn.n + 0.85 * COALESCE(c1.c, 0), 9) AS r
       FROM nodes LEFT JOIN c1 USING (v), nn),
c2 AS (SELECT e.dst AS v, SUM(r1.r / deg.outdeg) AS c
       FROM edges e JOIN deg USING (src) JOIN r1 ON r1.v = e.src
       GROUP BY e.dst),
r2 AS (SELECT nodes.v,
              ROUND((1 - 0.85) / nn.n + 0.85 * COALESCE(c2.c, 0), 9) AS r
       FROM nodes LEFT JOIN c2 USING (v), nn),
c3 AS (SELECT e.dst AS v, SUM(r2.r / deg.outdeg) AS c
       FROM edges e JOIN deg USING (src) JOIN r2 ON r2.v = e.src
       GROUP BY e.dst),
r3 AS (SELECT nodes.v,
              ROUND((1 - 0.85) / nn.n + 0.85 * COALESCE(c3.c, 0), 9) AS r
       FROM nodes LEFT JOIN c3 USING (v), nn)
SELECT v AS doc_id, r AS pagerank FROM r3
"""


def q_connected_components_chain(sf_dir: str):
    """Generic distributed connected components (iterated min-label
    propagation — the operator minhash dedup uses internally) exposed
    over a synthetic chain graph: edge (i, i+1) whenever i%5 < 4, so
    components are runs of 5 consecutive ids with diameter 4 (several
    propagation rounds needed) and the min label is closed-form:
    i - i%5."""
    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()

    def edges(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        a = d[(d % 5 < 4) & (d + 1 < n)]
        return pa.table({"a": pa.array(a), "b": pa.array(a + 1)})

    out = dd.connected_components_min_label(
        docs.map_batches(edges, batch_format="pyarrow"))
    return out.map_batches(
        lambda b: pa.table({"node": b["node"], "label": b["label"]}),
        batch_format="pyarrow")


SQL_COMPONENTS_CHAIN = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents)
SELECT doc_id AS node, doc_id - (doc_id % 5) AS label
FROM documents, nn
WHERE (doc_id % 5 > 0) OR (doc_id % 5 < 4 AND doc_id + 1 < nn.n)
"""


def _link_graph(sf_dir: str):
    """The deterministic synthetic link graph every graph query shares:
    doc → (doc*7919 + k*104729) % N for k = 1..3."""
    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()

    def edges(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        src = np.repeat(d, 3)
        k = np.tile(np.array([1, 2, 3], dtype=np.int64), len(d))
        dst = (src * 7919 + k * 104729) % n
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    nodes = docs.map_batches(
        lambda b: pa.table({"v": b["doc_id"]}), batch_format="pyarrow")
    return docs.map_batches(edges, batch_format="pyarrow"), nodes


def q_hits_links(sf_dir: str):
    """HITS hubs/authorities (2 rounds, max-normalized, 9dp rounding)
    over the shared synthetic link graph.  Max normalization keeps the
    float trajectory partition-order-independent so the unrolled-CTE
    oracle matches at the compare grain."""
    from ...stages import graph_ops
    edges, nodes = _link_graph(sf_dir)
    out = graph_ops.hits(edges, nodes, iters=2, round_dp=9)
    return out.map_batches(
        lambda b: pa.table({"doc_id": b["v"], "hub": b["hub"],
                            "authority": b["authority"]}),
        batch_format="pyarrow")


SQL_HITS = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
nodes AS (SELECT doc_id AS v FROM documents),
edges AS (
  SELECT d.doc_id AS src,
         (d.doc_id * 7919 + k.k * 104729) % nn.n AS dst
  FROM documents d CROSS JOIN (VALUES (1), (2), (3)) k(k)
  CROSS JOIN nn),
a1r AS (SELECT n.v, CAST(COUNT(e.src) AS DOUBLE) AS c
        FROM nodes n LEFT JOIN edges e ON e.dst = n.v GROUP BY n.v),
a1 AS (SELECT v, ROUND(c / COALESCE(NULLIF(
          (SELECT MAX(c) FROM a1r), 0), 1), 9) AS s FROM a1r),
h1r AS (SELECT n.v, COALESCE(SUM(a1.s), 0) AS c
        FROM nodes n LEFT JOIN edges e ON e.src = n.v
        LEFT JOIN a1 ON a1.v = e.dst GROUP BY n.v),
h1 AS (SELECT v, ROUND(c / COALESCE(NULLIF(
          (SELECT MAX(c) FROM h1r), 0), 1), 9) AS s FROM h1r),
a2r AS (SELECT n.v, COALESCE(SUM(h1.s), 0) AS c
        FROM nodes n LEFT JOIN edges e ON e.dst = n.v
        LEFT JOIN h1 ON h1.v = e.src GROUP BY n.v),
a2 AS (SELECT v, ROUND(c / COALESCE(NULLIF(
          (SELECT MAX(c) FROM a2r), 0), 1), 9) AS s FROM a2r),
h2r AS (SELECT n.v, COALESCE(SUM(a2.s), 0) AS c
        FROM nodes n LEFT JOIN edges e ON e.src = n.v
        LEFT JOIN a2 ON a2.v = e.dst GROUP BY n.v),
h2 AS (SELECT v, ROUND(c / COALESCE(NULLIF(
          (SELECT MAX(c) FROM h2r), 0), 1), 9) AS s FROM h2r)
SELECT n.v AS doc_id, h2.s AS hub, a2.s AS authority
FROM nodes n JOIN h2 ON h2.v = n.v JOIN a2 ON a2.v = n.v
"""


def q_label_propagation_links(sf_dir: str):
    """Deterministic synchronous label propagation (2 rounds: most
    frequent neighbor label, count ties → min label) over the shared
    link graph.  All-int state — the unrolled SQL twin is exact at any
    partitioning."""
    from ...stages import graph_ops
    edges, nodes = _link_graph(sf_dir)
    out = graph_ops.label_propagation(edges, nodes, iters=2)
    return out.map_batches(
        lambda b: pa.table({"doc_id": b["v"], "label": b["label"]}),
        batch_format="pyarrow")


SQL_LABEL_PROP = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
nodes AS (SELECT doc_id AS v FROM documents),
edges AS (
  SELECT d.doc_id AS src,
         (d.doc_id * 7919 + k.k * 104729) % nn.n AS dst
  FROM documents d CROSS JOIN (VALUES (1), (2), (3)) k(k)
  CROSS JOIN nn),
sym AS (SELECT src AS node, dst AS nbr FROM edges WHERE src <> dst
        UNION ALL
        SELECT dst AS node, src AS nbr FROM edges WHERE src <> dst),
l0 AS (SELECT v, v AS lbl FROM nodes),
c1 AS (SELECT s.node, l.lbl, COUNT(*) AS cnt
       FROM sym s JOIN l0 l ON l.v = s.nbr GROUP BY s.node, l.lbl),
m1 AS (SELECT node, lbl FROM (
         SELECT node, lbl, ROW_NUMBER() OVER (
           PARTITION BY node ORDER BY cnt DESC, lbl) AS rn
         FROM c1) WHERE rn = 1),
l1 AS (SELECT n.v, COALESCE(m1.lbl, n.v) AS lbl
       FROM nodes n LEFT JOIN m1 ON m1.node = n.v),
c2 AS (SELECT s.node, l.lbl, COUNT(*) AS cnt
       FROM sym s JOIN l1 l ON l.v = s.nbr GROUP BY s.node, l.lbl),
m2 AS (SELECT node, lbl FROM (
         SELECT node, lbl, ROW_NUMBER() OVER (
           PARTITION BY node ORDER BY cnt DESC, lbl) AS rn
         FROM c2) WHERE rn = 1),
l2 AS (SELECT n.v, COALESCE(m2.lbl, n.v) AS lbl
       FROM nodes n LEFT JOIN m2 ON m2.node = n.v)
SELECT v AS doc_id, lbl AS label FROM l2
"""


def q_bfs_hops_links(sf_dir: str):
    """Multi-source BFS hop distance (crawl-frontier / link-distance
    shape) over the same deterministic synthetic link graph as
    pagerank_links: seeds are every 97th doc, 3 expansion rounds, each
    node reports its MIN hop count.  Frontier-only bucketed expansion —
    round r's exchange is proportional to the newly-reached surface,
    not the visited set (graph_ops.bfs_hops; size-guarded broadcast leg
    at this scale, bucketed BSP leg past 4M nodes)."""
    from ...stages import graph_ops
    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()

    def edges(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.repeat(d, 3)
        k = np.tile(np.array([1, 2, 3], dtype=np.int64), len(d))
        dst = (src * 7919 + k * 104729) % n
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    def seed_rows(b: pa.Table) -> pa.Table:
        d = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"v": pa.array(d[d % 97 == 0])})

    seeds = docs.map_batches(seed_rows, batch_format="pyarrow")
    out = graph_ops.bfs_hops(
        docs.map_batches(edges, batch_format="pyarrow"), seeds,
        rounds=3, approx_num_nodes=n)
    return out.map_batches(
        lambda b: pa.table({"doc_id": b["v"], "hops": b["hops"]}),
        batch_format="pyarrow")


SQL_BFS_HOPS = """
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
         UNION ALL SELECT v, CAST(3 AS BIGINT) FROM f3) GROUP BY v)
SELECT v AS doc_id, hops FROM d3
"""


def q_sssp_links(sf_dir: str):
    """Bounded-hop weighted shortest path (min-plus Bellman-Ford, 3
    relaxation rounds) over the synthetic link graph with deterministic
    integer weights w = 1 + (src*31 + dst*17) % 9; seeds are every
    101st doc.  Changed-only frontier: a node whose distance did not
    improve is not re-expanded (graph_ops.sssp_rounds — broadcast leg
    here, bucketed BSP leg past the guard)."""
    from ...stages import graph_ops
    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()

    def edges(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.repeat(d, 3)
        k = np.tile(np.array([1, 2, 3], dtype=np.int64), len(d))
        dst = (src * 7919 + k * 104729) % n
        w = 1 + (src * 31 + dst * 17) % 9
        return pa.table({"src": pa.array(src), "dst": pa.array(dst),
                         "w": pa.array(w)})

    def seed_rows(b: pa.Table) -> pa.Table:
        d = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"v": pa.array(d[d % 101 == 0])})

    out = graph_ops.sssp_rounds(
        docs.map_batches(edges, batch_format="pyarrow"),
        docs.map_batches(seed_rows, batch_format="pyarrow"),
        rounds=3, approx_num_nodes=n)
    return out.map_batches(
        lambda b: pa.table({"doc_id": b["v"], "dist": b["dist"]}),
        batch_format="pyarrow")


SQL_SSSP = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
e AS (
  SELECT d.doc_id AS src,
         (d.doc_id * 7919 + k.k * 104729) % nn.n AS dst
  FROM documents d, (SELECT unnest([1, 2, 3]) AS k) k, nn),
ew AS (SELECT src, dst, 1 + (src * 31 + dst * 17) % 9 AS w FROM e),
d0 AS (SELECT doc_id AS v, CAST(0 AS BIGINT) AS dist
       FROM documents WHERE doc_id % 101 = 0),
c1 AS (SELECT e.dst AS v, d0.dist + e.w AS dist
       FROM ew e JOIN d0 ON d0.v = e.src),
d1 AS (SELECT v, MIN(dist) AS dist FROM (
         SELECT * FROM d0 UNION ALL SELECT * FROM c1) GROUP BY v),
c2 AS (SELECT e.dst AS v, d1.dist + e.w AS dist
       FROM ew e JOIN d1 ON d1.v = e.src),
d2 AS (SELECT v, MIN(dist) AS dist FROM (
         SELECT * FROM d1 UNION ALL SELECT * FROM c2) GROUP BY v),
c3 AS (SELECT e.dst AS v, d2.dist + e.w AS dist
       FROM ew e JOIN d2 ON d2.v = e.src),
d3 AS (SELECT v, MIN(dist) AS dist FROM (
         SELECT * FROM d2 UNION ALL SELECT * FROM c3) GROUP BY v)
SELECT v AS doc_id, dist FROM d3
"""


def q_k_core_links(sf_dir: str):
    """Bounded k-core peel (k=5, 3 rounds) over the pagerank_links
    synthetic graph (doc -> (doc*7919 + k*104729) % N, k=1..3,
    symmetrized): each round drops nodes whose degree in the surviving
    subgraph is < 5 — the cohesive-subgraph / spam-farm filter a link
    corpus runs before ranking.  Survivors report their degree in the
    final filtered edge set (graph_ops.k_core; size-guarded broadcast
    leg at this scale, bucketed-semi-join BSP leg past the node
    budget).  All-int state, unrolled-CTE SQL twin."""
    from ...stages import graph_ops
    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()

    def edges(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.repeat(d, 3)
        k = np.tile(np.array([1, 2, 3], dtype=np.int64), len(d))
        dst = (src * 7919 + k * 104729) % n
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    out = graph_ops.k_core(
        docs.map_batches(edges, batch_format="pyarrow"), k=5, rounds=3)
    return out.map_batches(
        lambda b: pa.table({"doc_id": b["v"], "deg": b["deg"]}),
        batch_format="pyarrow")


def _sql_k_core(k: int = 5, rounds: int = 3) -> str:
    """Unrolled peel rounds: degree -> survivors -> edge filter per
    round, mirroring graph_ops.k_core exactly (all-int)."""
    sql = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
raw AS (
  SELECT d.doc_id AS src,
         (d.doc_id * 7919 + kk.k * 104729) % nn.n AS dst
  FROM documents d, (SELECT unnest([1, 2, 3]) AS k) kk, nn),
e0 AS (SELECT DISTINCT a, b FROM (
  SELECT src AS a, dst AS b FROM raw
  UNION ALL SELECT dst AS a, src AS b FROM raw) WHERE a <> b),
"""
    prev = "e0"
    for r in range(1, rounds + 1):
        sql += (f"d{r} AS (SELECT a, COUNT(*) AS dg FROM {prev} "
                f"GROUP BY a),\n")
        sql += f"s{r} AS (SELECT a FROM d{r} WHERE dg >= {k}),\n"
        sql += (f"e{r} AS (SELECT e.a, e.b FROM {prev} e "
                f"JOIN s{r} x ON x.a = e.a "
                f"JOIN s{r} y ON y.a = e.b),\n")
        prev = f"e{r}"
    sql += (f"fd AS (SELECT a, CAST(COUNT(*) AS BIGINT) AS deg "
            f"FROM {prev} GROUP BY a)\n"
            f"SELECT s.a AS doc_id, COALESCE(fd.deg, 0) AS deg\n"
            f"FROM s{rounds} s LEFT JOIN fd ON fd.a = s.a")
    return sql


def q_local_clustering_links(sf_dir: str):
    """Per-node triangle count + local clustering coefficient over the
    pagerank_links synthetic graph: degree-ordered wedge enumeration
    with pivot identity kept, closed wedges credit all three corners
    (graph_ops.local_clustering — O(m^1.5) wedges regardless of skew).
    cc_nano is round-half-up(2·tri·1e9 / (deg·(deg−1))) in exact ints,
    so the 3-way-self-join SQL twin matches bit-for-bit."""
    from ...stages import graph_ops
    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()

    def edges(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.repeat(d, 3)
        k = np.tile(np.array([1, 2, 3], dtype=np.int64), len(d))
        dst = (src * 7919 + k * 104729) % n
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    out = graph_ops.local_clustering(
        docs.map_batches(edges, batch_format="pyarrow"))
    return out.map_batches(
        lambda b: pa.table({"doc_id": b["v"], "tri": b["tri"],
                            "deg": b["deg"], "cc_nano": b["cc_nano"]}),
        batch_format="pyarrow")


SQL_LOCAL_CLUSTERING = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
raw AS (
  SELECT d.doc_id AS src,
         (d.doc_id * 7919 + kk.k * 104729) % nn.n AS dst
  FROM documents d, (SELECT unnest([1, 2, 3]) AS k) kk, nn),
o AS (SELECT DISTINCT LEAST(src, dst) AS a, GREATEST(src, dst) AS b
      FROM raw WHERE src <> dst),
sym AS (SELECT a, b FROM o UNION ALL SELECT b AS a, a AS b FROM o),
dg AS (SELECT a AS v, CAST(COUNT(*) AS BIGINT) AS deg
       FROM sym GROUP BY a),
t AS (SELECT e1.a AS x, e1.b AS y, e2.b AS z
      FROM o e1 JOIN o e2 ON e2.a = e1.b
      JOIN o e3 ON e3.a = e1.a AND e3.b = e2.b),
cr AS (SELECT x AS v FROM t UNION ALL SELECT y FROM t
       UNION ALL SELECT z FROM t),
tc AS (SELECT v, CAST(COUNT(*) AS BIGINT) AS tri FROM cr GROUP BY v)
SELECT dg.v AS doc_id, COALESCE(tc.tri, 0) AS tri, dg.deg,
       CASE WHEN dg.deg >= 2 THEN CAST(
         (2 * (2 * CAST(COALESCE(tc.tri, 0) AS HUGEINT) * 1000000000)
          + dg.deg * (dg.deg - 1))
         // (2 * dg.deg * (dg.deg - 1)) AS BIGINT)
       ELSE 0 END AS cc_nano
FROM dg LEFT JOIN tc ON tc.v = dg.v
"""


def q_link_prediction_cn(sf_dir: str):
    """Link prediction by common-neighbor count: for every NON-edge
    vertex pair with ≥1 common neighbor, cn(u,v) = |N(u) ∩ N(v)| —
    exact integers via the cooccurrence kernel over the symmetric
    adjacency (each common neighbor w pivots the pair once), then an
    anti-join against the edge set and a (cn DESC, a, b) top-25.
    The Σ deg² wedge explosion is the exact-semantics cost — the
    kernel's per-key cap is OFF here because exactness is the contract
    (cap it for power-law graphs and document the recall tradeoff)."""
    edges, n = _synthetic_links(sf_dir)

    from ...stages.graph_ops import _normalize_undirected
    und = _normalize_undirected(edges, "src", "dst").materialize()

    sym = _sym_adjacency

    pairs = relational.cooccurrence_pairs(
        und.map_batches(sym, batch_format="pyarrow"),
        key_col="pivot", val_col="leaf", max_vals_per_key=None)

    # anti-join against existing edges on the (a, b) pair key
    und_t = relational.ds_to_table(und)
    edge_keys = np.sort(
        und_t["ea"].to_numpy(zero_copy_only=False).astype(np.int64)
        * (1 << 32)
        + und_t["eb"].to_numpy(zero_copy_only=False).astype(np.int64))
    import ray
    ek_ref = ray.put(edge_keys)

    def drop_edges(t: pa.Table) -> pa.Table:
        from ...stages.relational import worker_cached
        ek = worker_cached(("lp_edges", ek_ref), lambda: ray.get(ek_ref))
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        key = a * (1 << 32) + b
        pos = np.minimum(np.searchsorted(ek, key), len(ek) - 1)
        keep = ek[pos] != key              # vectorized non-membership
        out = t.filter(pa.array(keep))
        # per-block prune to k so the driver merge is blocks×k
        return out.rename_columns(["a", "b", "cn"]) \
            .sort_by([("cn", "descending"), ("a", "ascending"),
                      ("b", "ascending")]).slice(0, 25)

    pruned = relational.ds_to_table(
        pairs.map_batches(drop_edges, batch_format="pyarrow"))
    top = pruned.sort_by([("cn", "descending"), ("a", "ascending"),
                          ("b", "ascending")]).slice(0, 25)
    return top.to_pandas().astype({"a": np.int64, "b": np.int64,
                                   "cn": np.int64})


SQL_LINK_PRED = f"""
WITH {_SQL_LINKS_CTE},
cn AS (SELECT e1.v AS a, e2.v AS b, CAST(COUNT(*) AS BIGINT) AS cn
       FROM sym e1 JOIN sym e2 ON e1.u = e2.u AND e1.v < e2.v
       GROUP BY 1, 2),
nonedge AS (SELECT cn.* FROM cn
            LEFT JOIN und ON cn.a = und.a AND cn.b = und.b
            WHERE und.a IS NULL)
SELECT a, b, cn FROM nonedge
ORDER BY cn DESC, a, b LIMIT 25
"""


def q_mst_links(sf_dir: str):
    """Borůvka minimum spanning forest over the synthetic link graph
    (deterministic hash weights) — rounds are O(log V), each round one
    streaming edge pass + a component-bounded driver union-find; see
    ``graph_ops.minimum_spanning_forest``.  Not SQL-expressible;
    pinned by a pytest Kruskal cross-check (identical total weight and
    edge count on the same weighted fixture graph)."""
    from ...stages import graph_ops
    edges, n = _synthetic_links(sf_dir)
    mst, total, comps = graph_ops.minimum_spanning_forest(edges)
    return pd.DataFrame([{
        "n_nodes_spanned": int(mst.num_rows + comps),
        "n_edges": int(mst.num_rows),
        "total_weight": int(total),
        "n_components": int(comps)}])


def q_k_truss_links(sf_dir: str):
    """3-truss of the synthetic link graph (every surviving edge in
    ≥ 1 triangle within the SURVIVING subgraph — the fixed point, not
    a one-shot filter) — iterative support peel on degree-oriented
    wedges; see ``graph_ops.k_truss``.  k=3 because the sparse 3-out
    synthetic graph has triangles but no 4-truss.  Not SQL-expressible
    (iterative fixed point); pinned by golden-graph pytests (K4
    survives the 4-truss with support 2, C5 empties, pendants drop)."""
    from ...stages import graph_ops
    edges, n = _synthetic_links(sf_dir)
    t = graph_ops.k_truss(edges, k=3)
    df = t.to_pandas().sort_values(["ea", "eb"]).reset_index(drop=True)
    return df.astype({"ea": np.int64, "eb": np.int64,
                      "support": np.int64})


def q_personalized_pagerank(sf_dir: str):
    """Personalized PageRank: the restart distribution concentrates on
    the seed set {doc_id % 10 == 0} instead of the uniform vector —
    the relevance-propagation primitive behind related-item and
    trust-rank scoring.  The kernel's ``teleport_fn`` makes the
    restart mass a FUNCTION of the node id, evaluated per batch on
    both the broadcast and the join path, so no personalization
    vector ever ships; the same synthetic 3-out-link graph and 9dp
    per-round rounding as the uniform twin, oracle unrolled per
    round."""
    from ...stages import graph_ops
    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()
    n_seed = (n + 9) // 10              # ids 0, 10, ... < n

    def edges(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        src = np.repeat(d, 3)
        k = np.tile(np.array([1, 2, 3], dtype=np.int64), len(d))
        dst = (src * 7919 + k * 104729) % n
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    def teleport(v: np.ndarray) -> np.ndarray:
        return np.where(v % 10 == 0, 0.15 / n_seed, 0.0)

    nodes = docs.map_batches(
        lambda b: pa.table({"v": b["doc_id"]}), batch_format="pyarrow")
    out = graph_ops.pagerank(
        docs.map_batches(edges, batch_format="pyarrow"), nodes,
        iters=3, damping=0.85, round_dp=9, teleport_fn=teleport)
    return out.map_batches(
        lambda b: pa.table({"doc_id": b["v"], "ppr": b["pagerank"]}),
        batch_format="pyarrow")


def _sql_personalized_pagerank() -> str:
    tele = ("CASE WHEN nodes.v % 10 = 0 THEN 0.15 / ns.s"
            " ELSE 0.0 END")
    rounds = []
    prev = "r0"
    for i in range(1, 4):
        rounds.append(f"""
c{i} AS (SELECT e.dst AS v, SUM({prev}.r / deg.outdeg) AS c
       FROM edges e JOIN deg USING (src)
       JOIN {prev} ON {prev}.v = e.src
       GROUP BY e.dst),
r{i} AS (SELECT nodes.v,
              ROUND({tele} + 0.85 * COALESCE(c{i}.c, 0), 9) AS r
       FROM nodes LEFT JOIN c{i} USING (v), ns)""")
        prev = f"r{i}"
    return f"""
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
ns AS (SELECT (n + 9) // 10 AS s FROM nn),
nodes AS (SELECT doc_id AS v FROM documents),
edges AS (
  SELECT d.doc_id AS src,
         (d.doc_id * 7919 + k.k * 104729) % nn.n AS dst
  FROM documents d, (SELECT unnest([1, 2, 3]) AS k) k, nn),
deg AS (SELECT src, COUNT(*) AS outdeg FROM edges GROUP BY src),
r0 AS (SELECT nodes.v, ROUND({tele}, 9) AS r FROM nodes, ns),
{','.join(rounds)}
SELECT v AS doc_id, r AS ppr FROM r3
"""


def q_temporal_reachability_links(sf_dir: str):
    """Time-respecting reachability — the temporal-network primitive
    (disease spread, information cascades, log forensics): an edge is
    usable only at its departure time t(e) = (src + k) % 30, and a
    path must have NON-DECREASING times, so plain BFS overcounts.
    Earliest-arrival propagation from doc 0 (arrival 0), 3 bounded
    rounds: each round is ONE streaming edge pass against the
    broadcast (node → arrival) state (size-guarded like the BFS
    kernel's broadcast leg — nodes-bounded, 16 B/node), new arrivals
    MIN-merge per round.  Output: the arrival-time histogram.  The
    twin unrolls the identical 3 rounds."""
    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()

    def edges(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        src = np.repeat(d, 3)
        k = np.tile(np.array([1, 2, 3], dtype=np.int64), len(d))
        dst = (src * 7919 + k * 104729) % n
        t = (src + k) % 30
        return pa.table({"src": pa.array(src), "dst": pa.array(dst),
                         "t": pa.array(t)})

    # consumed once per round: pin so the edge build runs once
    edges_materialized = docs.map_batches(
        edges, batch_format="pyarrow").materialize()
    state_v = np.array([0], dtype=np.int64)
    state_arr = np.array([0], dtype=np.int64)
    for _ in range(3):
        ref_v, ref_a = ray.put(state_v), ray.put(state_arr)

        def expand(t: pa.Table) -> pa.Table:
            sv, sa = ray.get(ref_v), ray.get(ref_a)
            src = t["src"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(sv, src)
            hit = pos < len(sv)
            hit[hit] = sv[pos[hit]] == src[hit]
            te = t["t"].to_numpy(zero_copy_only=False)
            ok = hit & (te >= np.where(hit, sa[np.minimum(
                pos, len(sa) - 1)], 0))
            if not ok.any():
                return pa.table({"dst": pa.array([], pa.int64()),
                                 "arr": pa.array([], pa.int64())})
            g = pd.DataFrame({
                "dst": t["dst"].to_numpy(zero_copy_only=False)[ok],
                "arr": te[ok]}).groupby("dst", sort=False) \
                .min().reset_index()
            return pa.Table.from_pandas(g, preserve_index=False)

        from ray.data.aggregate import Min
        new = relational.ds_to_table(
            edges_materialized.map_batches(expand,
                                           batch_format="pyarrow")
            .groupby("dst").aggregate(Min("arr", alias_name="arr"))
        ).to_pandas()
        # MIN-merge new arrivals into the (nodes-bounded) state
        merged = pd.DataFrame({"v": state_v, "arr": state_arr})
        merged = pd.concat([merged, new.rename(
            columns={"dst": "v"})], ignore_index=True) \
            .groupby("v")["arr"].min().reset_index() \
            .sort_values("v")
        state_v = merged["v"].to_numpy(np.int64)
        state_arr = merged["arr"].to_numpy(np.int64)
    hist = pd.DataFrame({"arr": state_arr}).groupby("arr") \
        .size().rename("n_nodes").reset_index()
    return hist.astype({"arr": np.int64, "n_nodes": np.int64})


def _sql_temporal_reach() -> str:
    body = ["a0 AS (SELECT CAST(0 AS BIGINT) AS v,"
            " CAST(0 AS BIGINT) AS arr)"]
    for r in range(1, 4):
        body.append(
            f"e{r} AS (SELECT e.dst AS v, MIN(e.t) AS arr\n"
            f"       FROM edges e JOIN a{r-1} s ON s.v = e.src"
            f" AND e.t >= s.arr GROUP BY 1)")
        body.append(
            f"a{r} AS (SELECT v, MIN(arr) AS arr FROM (\n"
            f"         SELECT v, arr FROM a{r-1}\n"
            f"         UNION ALL SELECT v, arr FROM e{r})"
            f" GROUP BY v)")
    chain = ",\n".join(body)
    return f"""
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
edges AS (
  SELECT d.doc_id AS src,
         (d.doc_id * 7919 + k.k * 104729) % nn.n AS dst,
         (d.doc_id + k.k) % 30 AS t
  FROM documents d, (SELECT unnest([1, 2, 3]) AS k) k, nn),
{chain}
SELECT arr, CAST(COUNT(*) AS BIGINT) AS n_nodes
FROM a3 GROUP BY 1 ORDER BY 1
"""


def q_anf_effective_diameter(sf_dir: str):
    """Approximate neighborhood function + effective diameter of the
    link graph via HyperBall (per-node 256-register HLL sketches,
    max-merged along edges each round — the linear-memory alternative
    to the O(n·m) exact all-pairs BFS, the algorithm behind every
    published web-graph diameter number).  No SQL oracle: the sketch
    is approximate BY DESIGN; pytest pins each N(h) against the exact
    dense BFS neighborhood function at fixture scale and the
    monotonicity contract."""
    from ...stages import graph_ops

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()
    nodes = docs.map_batches(
        lambda t: pa.table({"v": t["doc_id"].cast(pa.int64())}),
        batch_format="pyarrow")

    def edges(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.repeat(d, 3)
        k = np.tile(np.array([1, 2, 3], dtype=np.int64), len(d))
        return pa.table({"src": pa.array(src),
                         "dst": pa.array((src * 7919 + k * 104729) % n)})

    totals = graph_ops.hyperball_nf(
        docs.map_batches(edges, batch_format="pyarrow"), nodes,
        rounds=4)
    nf_max = totals[-1]
    eff = next(h for h, t in enumerate(totals) if t >= 0.9 * nf_max)
    return pd.DataFrame([{
        "h": h, "nf": np.round(t, 2),
        "ratio": np.round(t / nf_max, 4),
        "is_effective_diameter": bool(h == eff)}
        for h, t in enumerate(totals)]).astype({"h": np.int64})
