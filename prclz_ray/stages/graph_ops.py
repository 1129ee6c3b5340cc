"""Distributed graph algorithms over edge-list Datasets.

The reblocking graph kernels (``prclz_ray/graph/``) operate on per-block
graphs small enough for one task; these operators are the complement —
web-scale graphs (link graphs, similarity graphs) that live as
hash-partitioned (src, dst) edge Datasets and iterate via joins/groupbys,
the canonical BSP-on-a-dataflow shape.

PageRank power iteration, per round (E = edges, V = nodes):
  1. one bucketed co-shuffle join attaches the current rank to each edge
     by src (both sides hash-partitioned on the SAME key — the
     partitioning is reused every round);
  2. per-edge contribution r/outdeg, one groupby(dst) sum;
  3. the teleport term folds in by unioning a zero row per node BEFORE
     the sum (so in-linkless nodes survive without a second outer join).
Each round materializes — the barrier is inherent to power iteration.
Ranks round to ``round_dp`` decimals every round, making the float
trajectory identical across partitionings/merge orders and letting an
unrolled SQL twin reproduce it bit-for-bit at the compare grain.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import util
from .relational import bucket_shuffle


def pagerank(edges_ds, nodes_ds, node_col: str = "v", src_col: str = "src",
             dst_col: str = "dst", iters: int = 3, damping: float = 0.85,
             round_dp: int = 9, teleport_fn=None):
    """PageRank over an edge-list Dataset.  Returns a Dataset of
    (node_col, pagerank) after ``iters`` power-iteration rounds from the
    uniform vector.  Out-degrees are computed once and attached to the
    (materialized) edge set; dangling nodes (outdeg 0) simply contribute
    nothing, matching the unrolled-CTE SQL twin.

    Size guard (the repo's standard broadcast pattern): when the rank
    vector fits ``BROADCAST_LIMIT_BYTES`` (16 B/node), each round is ONE
    streaming map over the edges — ranks ship via ``ray.put``, per-batch
    contributions collapse to sparse (dst, c) partials, and the driver
    merges ≤ batch-bounded rows into the dense vector (same k×blocks
    merge shape as top-k).  Past the guard, the V-scale join path runs:
    per round one bucketed edges×ranks co-shuffle join + one
    groupby(dst) sum, nothing driver-sized."""
    from ray.data.aggregate import Count, Sum

    from .relational import bucketed_hash_join

    n = nodes_ds.count()
    teleport = (1.0 - damping) / n
    # teleport_fn(ids: np.ndarray) -> np.ndarray makes the restart
    # distribution a FUNCTION of the node id (personalized PageRank):
    # both paths evaluate it per batch, so no vector ever ships
    if n * 16 <= util.BROADCAST_LIMIT_BYTES:
        return _pagerank_broadcast(edges_ds, nodes_ds, node_col, src_col,
                                   dst_col, iters, damping, round_dp,
                                   teleport, teleport_fn)

    outdeg = edges_ds.groupby(src_col).aggregate(Count(alias_name="outdeg"))
    edges_w = bucketed_hash_join(edges_ds, outdeg, on=src_col).materialize()

    r0 = np.round(1.0 / n, round_dp)

    def init(batch: pa.Table) -> pa.Table:
        if teleport_fn is not None:
            v = batch[node_col].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            r = np.round(teleport_fn(v), round_dp)
        else:
            r = np.full(batch.num_rows, r0)
        return pa.table({node_col: batch[node_col], "r": pa.array(r)})

    ranks = nodes_ds.map_batches(init, batch_format="pyarrow").materialize()

    def zero_rows(batch: pa.Table) -> pa.Table:
        return pa.table({node_col: batch[node_col],
                         "c": pa.array(np.zeros(batch.num_rows))})

    base = nodes_ds.map_batches(zero_rows, batch_format="pyarrow")

    for _ in range(iters):
        def to_src(batch: pa.Table) -> pa.Table:
            return pa.table({src_col: batch[node_col], "r": batch["r"]})

        joined = bucketed_hash_join(
            edges_w, ranks.map_batches(to_src, batch_format="pyarrow"),
            on=src_col)

        def contrib(batch: pa.Table) -> pa.Table:
            r = batch["r"].to_numpy(zero_copy_only=False)
            d = batch["outdeg"].to_numpy(zero_copy_only=False)
            return pa.table({node_col: batch[dst_col],
                             "c": pa.array(r / d)})

        sums = joined.map_batches(contrib, batch_format="pyarrow") \
            .union(base).groupby(node_col).aggregate(Sum("c", alias_name="c"))

        def formula(batch: pa.Table) -> pa.Table:
            c = batch["c"].to_numpy(zero_copy_only=False)
            if teleport_fn is not None:
                v = batch[node_col].to_numpy(zero_copy_only=False) \
                    .astype(np.int64)
                t = teleport_fn(v)
            else:
                t = teleport
            r = np.round(t + damping * c, round_dp)
            return pa.table({node_col: batch[node_col], "r": pa.array(r)})

        ranks = sums.map_batches(formula, batch_format="pyarrow") \
            .materialize()

    def out(batch: pa.Table) -> pa.Table:
        return pa.table({node_col: batch[node_col],
                         "pagerank": batch["r"]})

    return ranks.map_batches(out, batch_format="pyarrow")


def _pagerank_broadcast(edges_ds, nodes_ds, node_col, src_col, dst_col,
                        iters, damping, round_dp, teleport,
                        teleport_fn=None):
    import ray
    import ray.data as rd

    from .relational import ds_to_table

    # pinned: consumed once per round (+ the outdeg pass) — without this
    # every sparse-partials pass re-executes the upstream edge pipeline
    edges_ds = edges_ds.materialize()
    ids = np.sort(np.concatenate(
        [b[node_col].to_numpy(zero_copy_only=False)
         for b in nodes_ds.iter_batches(batch_format="pyarrow")]
        or [np.array([], dtype=np.int64)]).astype(np.int64))
    ids_ref = ray.put(ids)
    V = len(ids)

    def sparse_partials(value_fn):
        """One streaming pass over edges → per-batch sparse (idx, c)
        partials, merged dense on the driver (rows bounded by
        min(V, batch) × blocks)."""
        def f(batch: pa.Table) -> pa.Table:
            _ids = ray.get(ids_ref)
            s = np.searchsorted(
                _ids, batch[src_col].to_numpy(zero_copy_only=False))
            d = np.searchsorted(
                _ids, batch[dst_col].to_numpy(zero_copy_only=False))
            idx, w = value_fn(s, d)
            uniq, inv = np.unique(idx, return_inverse=True)
            c = np.bincount(inv, weights=w)
            return pa.table({"i": pa.array(uniq.astype(np.int64)),
                             "c": pa.array(c)})

        t = ds_to_table(edges_ds.map_batches(f, batch_format="pyarrow"))
        dense = np.zeros(V)
        np.add.at(dense, t["i"].to_numpy(zero_copy_only=False),
                  t["c"].to_numpy(zero_copy_only=False))
        return dense

    outdeg = sparse_partials(lambda s, d: (s, np.ones(len(s))))
    outdeg_ref = ray.put(outdeg)

    tvec = teleport_fn(ids) if teleport_fn is not None else None
    r = np.round(tvec if tvec is not None else np.full(V, 1.0 / V),
                 round_dp)
    for _ in range(iters):
        r_ref = ray.put(r)

        def contrib(s, d, _r_ref=r_ref):
            rr = ray.get(_r_ref)
            od = ray.get(outdeg_ref)
            return d, rr[s] / od[s]

        c = sparse_partials(contrib)
        r = np.round((tvec if tvec is not None else teleport)
                     + damping * c, round_dp)

    return rd.from_arrow(pa.table({node_col: pa.array(ids),
                                   "pagerank": pa.array(r)}))


def triangle_count(edges_ds, src_col: str = "src",
                   dst_col: str = "dst") -> int:
    """Distributed EXACT triangle counting via degree-ordered edge
    orientation: each distinct undirected edge is directed from its
    lower-(degree, id) endpoint to the higher, wedges are enumerated
    ONLY at the lower endpoint (out-degrees are O(√m)-bounded after
    orientation, so total wedges are O(m^1.5) regardless of skew — a
    10⁶-degree power-law hub has out-degree ~0 and emits no wedges,
    where naive common-neighbor counting would emit deg²/2), and a
    wedge pair is a triangle iff it is itself an edge.  Every triangle
    is enumerated exactly once — at its (deg, id)-minimum vertex — so
    triangles = closed-wedge count, no /3.

    Degree attach is size-guarded (16 B/node broadcast via ``ray.put``
    + per-worker cache) with a bucketed-join fallback past the budget;
    the closing edge check fuses its count into the pair-join's bucket
    tasks (≤ 1 row out per bucket).

    SQL twin: the classic 3-way self-join on (a<b) edges."""
    import pyarrow.compute as pc
    import ray
    from ray.data.aggregate import Count, Sum

    from .relational import (bucketed_hash_join, cooccurrence_pairs,
                             ds_to_table)
    from .util import worker_cached

    def norm(batch: pa.Table) -> pa.Table:
        s = batch[src_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        d = batch[dst_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        m = s != d
        s, d = s[m], d[m]
        a, b = np.minimum(s, d), np.maximum(s, d)
        t = pa.table({"ea": pa.array(a), "eb": pa.array(b)})
        return t.group_by(["ea", "eb"]).aggregate([])

    # per-batch distinct partials → ONE arrow groupby-count = global
    # distinct (no per-group pandas head(1))
    und = edges_ds.map_batches(norm, batch_format="pyarrow") \
        .groupby(["ea", "eb"]).aggregate(Count(alias_name="_n")) \
        .map_batches(lambda t: t.select(["ea", "eb"]),
                     batch_format="pyarrow").materialize()

    # undirected degrees: per-batch sparse partials → one groupby sum
    def deg_partial(t: pa.Table) -> pa.Table:
        n = np.concatenate(
            [t["ea"].to_numpy(zero_copy_only=False),
             t["eb"].to_numpy(zero_copy_only=False)]).astype(np.int64)
        uniq, cnt = np.unique(n, return_counts=True)
        return pa.table({"node": pa.array(uniq),
                         "pn": pa.array(cnt.astype(np.int64))})

    deg = und.map_batches(deg_partial, batch_format="pyarrow") \
        .groupby("node").aggregate(Sum("pn", alias_name="deg")) \
        .materialize()

    if deg.count() * 16 <= util.BROADCAST_LIMIT_BYTES:
        deg_t = ds_to_table(deg)
        ids = deg_t["node"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        dv = deg_t["deg"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        order = np.argsort(ids)
        ref = ray.put((ids[order], dv[order]))

        def orient(t: pa.Table) -> pa.Table:
            _ids, _dv = worker_cached(("tri_deg", ref),
                                      lambda: ray.get(ref))
            a = t["ea"].to_numpy(zero_copy_only=False).astype(np.int64)
            b = t["eb"].to_numpy(zero_copy_only=False).astype(np.int64)
            da = _dv[np.searchsorted(_ids, a)]
            db = _dv[np.searchsorted(_ids, b)]
            # a < b always, so the id tiebreak keeps a on equal degrees
            swap = db < da
            return pa.table({"lo": pa.array(np.where(swap, b, a)),
                             "hi": pa.array(np.where(swap, a, b))})

        oriented = und.map_batches(orient, batch_format="pyarrow")
    else:
        # V-scale path: two bucketed co-shuffle joins attach degrees
        dega = deg.map_batches(
            lambda t: t.rename_columns(["ea", "deg_a"]),
            batch_format="pyarrow")
        degb = deg.map_batches(
            lambda t: t.rename_columns(["eb", "deg_b"]),
            batch_format="pyarrow")
        j = bucketed_hash_join(bucketed_hash_join(und, dega, on="ea"),
                               degb, on="eb")

        def orient2(t: pa.Table) -> pa.Table:
            a = t["ea"].to_numpy(zero_copy_only=False).astype(np.int64)
            b = t["eb"].to_numpy(zero_copy_only=False).astype(np.int64)
            da = t["deg_a"].to_numpy(zero_copy_only=False)
            db = t["deg_b"].to_numpy(zero_copy_only=False)
            swap = db < da
            return pa.table({"lo": pa.array(np.where(swap, b, a)),
                             "hi": pa.array(np.where(swap, a, b))})

        oriented = j.map_batches(orient2, batch_format="pyarrow")

    # wedges at the lower endpoint only; cap disabled is now SAFE: the
    # oriented out-degree is O(√m)-bounded by construction
    # materialized: the pair groupby has already exchanged it, and an
    # EMPTY wedge set (e.g. a pure star graph) must short-circuit — a
    # schema-less empty Dataset can't drive the closing join
    wedges = cooccurrence_pairs(oriented, key_col="lo", val_col="hi",
                                max_vals_per_key=None).materialize()
    if wedges.count() == 0:
        return 0

    # close wedges against the edge set: one bucketed join on the (a,b)
    # pair — a space-joined STRING key (int packing would overflow past
    # 2^32 node ids; space is unambiguous for integers).  n_keys = how
    # many pivots produced this pair = triangles closed by this edge.
    def pairkey(t: pa.Table, a: str, b: str) -> pa.Table:
        k = pc.binary_join_element_wise(
            pc.cast(t[a], pa.string()), pc.cast(t[b], pa.string()), " ")
        return t.append_column("_pk", k)

    w = wedges.map_batches(lambda t: pairkey(t, "a", "b"),
                           batch_format="pyarrow")
    e = und.map_batches(lambda t: pairkey(t, "ea", "eb"),
                        batch_format="pyarrow")

    def comb(t: pa.Table) -> pa.Table:
        s = pc.sum(t["n_keys"]).as_py()
        return pa.table({"s": pa.array([int(s or 0)], type=pa.int64())})

    j = bucketed_hash_join(w, e, on="_pk", combine=comb)
    total = ds_to_table(j).to_pandas()
    if "s" not in total.columns:  # triangle-free graph: empty join
        return 0
    return int(total["s"].sum())


def hits(edges_ds, nodes_ds, node_col: str = "v", src_col: str = "src",
         dst_col: str = "dst", iters: int = 2, round_dp: int = 9):
    """HITS hubs/authorities power iteration over an edge-list Dataset.
    Per round: a(v) = Σ_{u→v} h(u), max-normalized; h(u) = Σ_{u→v} a(v),
    max-normalized.  MAX normalization (not L1/L2) keeps the reference
    trajectory order-independent — a float SUM over all nodes would make
    the result depend on block merge order; max does not — and every
    round rounds to ``round_dp`` so the unrolled SQL twin reproduces it
    at the compare grain.

    Size guard (the repo's standard pattern): while two V-sized float
    vectors fit ``BROADCAST_LIMIT_BYTES`` the rounds are streaming
    sparse-partial passes over the edges (same shape as PageRank's
    broadcast leg); past it, each half-round is one bucketed
    edges×scores co-shuffle join + a groupby sum + a driver-scalar max
    — nothing driver-sized."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Max, Sum

    from .relational import bucketed_hash_join, ds_to_table

    n = nodes_ds.count()
    if n == 0:
        return rd.from_arrow(pa.table({node_col: pa.array([], pa.int64()),
                                       "hub": pa.array([], pa.float64()),
                                       "authority": pa.array(
                                           [], pa.float64())}))
    if n * 16 <= util.BROADCAST_LIMIT_BYTES:
        return _hits_broadcast(edges_ds, nodes_ds, node_col, src_col,
                               dst_col, iters, round_dp)

    edges_ds = edges_ds.materialize()   # consumed 2×iters times below

    def init(batch: pa.Table) -> pa.Table:
        return pa.table({node_col: batch[node_col],
                         "s": pa.array(np.ones(batch.num_rows))})

    zeros = nodes_ds.map_batches(
        lambda b: pa.table({node_col: b[node_col],
                            "c": pa.array(np.zeros(b.num_rows))}),
        batch_format="pyarrow")
    h = nodes_ds.map_batches(init, batch_format="pyarrow").materialize()
    a = h

    def half_round(scores, from_col, to_col):
        """scores keyed on from_col flow along edges to to_col."""
        keyed = scores.map_batches(
            lambda t: pa.table({from_col: t[node_col], "s": t["s"]}),
            batch_format="pyarrow")
        j = bucketed_hash_join(edges_ds, keyed, on=from_col)
        sums = j.map_batches(
            lambda t: pa.table({node_col: t[to_col], "c": t["s"]}),
            batch_format="pyarrow") \
            .union(zeros).groupby(node_col) \
            .aggregate(Sum("c", alias_name="c")).materialize()
        mx = sums.aggregate(Max("c"))["max(c)"] or 1.0

        def norm(batch: pa.Table) -> pa.Table:
            c = batch["c"].to_numpy(zero_copy_only=False)
            return pa.table({node_col: batch[node_col],
                             "s": pa.array(np.round(c / mx, round_dp))})

        return sums.map_batches(norm, batch_format="pyarrow").materialize()

    for _ in range(iters):
        a = half_round(h, src_col, dst_col)
        h = half_round(a, dst_col, src_col)

    hj = bucketed_hash_join(
        h.map_batches(lambda t: pa.table({node_col: t[node_col],
                                          "hub": t["s"]}),
                      batch_format="pyarrow"),
        a.map_batches(lambda t: pa.table({node_col: t[node_col],
                                          "authority": t["s"]}),
                      batch_format="pyarrow"),
        on=node_col)
    return hj.map_batches(
        lambda t: t.select([node_col, "hub", "authority"]),
        batch_format="pyarrow")


def _hits_broadcast(edges_ds, nodes_ds, node_col, src_col, dst_col,
                    iters, round_dp):
    import ray
    import ray.data as rd

    from .relational import ds_to_table

    # pinned: each of the 2×iters flow passes re-executes the upstream
    # edge pipeline otherwise
    edges_ds = edges_ds.materialize()
    ids = np.sort(np.concatenate(
        [b[node_col].to_numpy(zero_copy_only=False)
         for b in nodes_ds.iter_batches(batch_format="pyarrow")]
        or [np.array([], dtype=np.int64)]).astype(np.int64))
    ids_ref = ray.put(ids)
    V = len(ids)

    def flow(vec, along):
        """One streaming edge pass: vec[from] accumulated at to.
        along=+1: src→dst (authority update); -1: dst→src (hub)."""
        vec_ref = ray.put(vec)

        def f(batch: pa.Table) -> pa.Table:
            _ids = ray.get(ids_ref)
            vv = ray.get(vec_ref)
            s = np.searchsorted(
                _ids, batch[src_col].to_numpy(zero_copy_only=False))
            d = np.searchsorted(
                _ids, batch[dst_col].to_numpy(zero_copy_only=False))
            frm, to = (s, d) if along > 0 else (d, s)
            uniq, inv = np.unique(to, return_inverse=True)
            c = np.bincount(inv, weights=vv[frm])
            return pa.table({"i": pa.array(uniq.astype(np.int64)),
                             "c": pa.array(c)})

        t = ds_to_table(edges_ds.map_batches(f, batch_format="pyarrow"))
        dense = np.zeros(V)
        np.add.at(dense, t["i"].to_numpy(zero_copy_only=False),
                  t["c"].to_numpy(zero_copy_only=False))
        mx = dense.max() if len(dense) and dense.max() > 0 else 1.0
        return np.round(dense / mx, round_dp)

    h = np.ones(V)
    a = np.zeros(V)
    for _ in range(iters):
        a = flow(h, +1)
        h = flow(a, -1)

    return rd.from_arrow(pa.table({node_col: pa.array(ids),
                                   "hub": pa.array(h),
                                   "authority": pa.array(a)}))


def label_propagation(edges_ds, nodes_ds, node_col: str = "v",
                      src_col: str = "src", dst_col: str = "dst",
                      iters: int = 2):
    """Synchronous community label propagation, fully DETERMINISTIC
    (unlike classic async LPA): labels start as node ids; each round
    every node adopts the most frequent label among its (undirected)
    neighbors, breaking count ties by MIN label, keeping its own label
    when it has no neighbors.  All-int state — no float trajectory — so
    an unrolled SQL twin reproduces it exactly at any partitioning.

    Size guard (the repo's standard pattern): while the label vector
    fits ``BROADCAST_LIMIT_BYTES`` (16 B/node), each round is ONE
    streaming edge pass (labels ship via ``ray.put``, per-batch
    vectorized (node, lbl) count partials) into ONE node-bucket
    groupby whose per-bucket argmax is a single lexicographic sort —
    the driver then merges a V-sized vector.  Past the guard, the
    V-scale BSP leg runs: one bucketed edges×labels co-shuffle join +
    per-batch count partials + a bucketed argmax per round, nothing
    driver-sized."""
    from .relational import bucketed_hash_join

    def sym(batch: pa.Table) -> pa.Table:
        s = batch[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        m = s != d
        s, d = s[m], d[m]
        return pa.table({"node": pa.array(np.concatenate([s, d])),
                         "nbr": pa.array(np.concatenate([d, s]))})

    edges = edges_ds.map_batches(sym, batch_format="pyarrow").materialize()

    n = nodes_ds.count()
    if n * 16 <= util.BROADCAST_LIMIT_BYTES:
        return _label_prop_broadcast(edges, nodes_ds, node_col, iters)

    labels = nodes_ds.map_batches(
        lambda b: pa.table({"nbr": b[node_col], "lbl": b[node_col]}),
        batch_format="pyarrow").materialize()

    for _ in range(iters):
        j = bucketed_hash_join(edges, labels, on="nbr")

        def count_partial(t: pa.Table) -> pa.Table:
            g = t.select(["node", "lbl"]).group_by(["node", "lbl"]) \
                .aggregate([("lbl", "count")])
            return pa.table({"node": g["node"], "lbl": g["lbl"],
                             "pn": g["lbl_count"].cast(pa.int64())})

        def argmax(t: pa.Table) -> pa.Table:
            # whole node-bucket at once: sum partials per (node, lbl),
            # then max count / min label via ONE lexicographic sort —
            # 32 vectorized calls per round, not one per node
            df = t.to_pandas().groupby(["node", "lbl"], sort=False,
                                       as_index=False)["pn"].sum() \
                .sort_values(["node", "pn", "lbl"],
                             ascending=[True, False, True]) \
                .drop_duplicates("node", keep="first")
            return pa.table({
                "nbr": pa.array(df["node"].to_numpy(dtype=np.int64)),
                "lbl": pa.array(df["lbl"].to_numpy(dtype=np.int64))})

        new = bucket_shuffle(j, "node", argmax,
                             prepare=count_partial, batch_format="pyarrow")
        # isolated nodes keep their own label: left-anti union
        from .relational import bucketed_semi_join
        keep = bucketed_semi_join(labels, new.map_batches(
            lambda t: pa.table({"nbr": t["nbr"]}),
            batch_format="pyarrow"), on="nbr", anti=True)
        labels = new.union(keep).materialize()

    return labels.map_batches(
        lambda t: pa.table({node_col: t["nbr"], "label": t["lbl"]}),
        batch_format="pyarrow")


def _label_prop_broadcast(sym_edges, nodes_ds, node_col, iters):
    import ray
    import ray.data as rd

    from .relational import ds_to_table

    ids = np.sort(np.concatenate(
        [b[node_col].to_numpy(zero_copy_only=False)
         for b in nodes_ds.iter_batches(batch_format="pyarrow")]
        or [np.array([], dtype=np.int64)]).astype(np.int64))
    ids_ref = ray.put(ids)
    lbl = ids.copy()

    for _ in range(iters):
        lbl_ref = ray.put(lbl)

        def partial(batch: pa.Table) -> pa.Table:
            _ids = ray.get(ids_ref)
            _lbl = ray.get(lbl_ref)
            nd = np.searchsorted(
                _ids, batch["node"].to_numpy(zero_copy_only=False))
            nbl = _lbl[np.searchsorted(
                _ids, batch["nbr"].to_numpy(zero_copy_only=False))]
            pair = np.stack([nd, nbl], axis=1)
            uniq, cnt = np.unique(pair, axis=0, return_counts=True)
            return pa.table({
                "i": pa.array(uniq[:, 0]), "l": pa.array(uniq[:, 1]),
                "c": pa.array(cnt.astype(np.int64))})

        def argmax(t: pa.Table) -> pa.Table:
            df = t.to_pandas().groupby(["i", "l"], sort=False,
                                       as_index=False)["c"].sum() \
                .sort_values(["i", "c", "l"],
                             ascending=[True, False, True]) \
                .drop_duplicates("i", keep="first")
            return pa.table({
                "i": pa.array(df["i"].to_numpy(dtype=np.int64)),
                "l": pa.array(df["l"].to_numpy(dtype=np.int64))})

        top = ds_to_table(bucket_shuffle(
            sym_edges, "i", argmax, prepare=partial,
            batch_format="pyarrow"))
        new = lbl.copy()                 # isolated nodes keep their own
        new[top["i"].to_numpy(zero_copy_only=False)] = \
            top["l"].to_numpy(zero_copy_only=False)
        lbl = new

    return rd.from_arrow(pa.table({node_col: pa.array(ids),
                                   "label": pa.array(lbl)}))


def bfs_hops(edges_ds, seeds_ds, node_col: str = "v", src_col: str = "src",
             dst_col: str = "dst", rounds: int = 3,
             approx_num_nodes: int | None = None):
    """Multi-source BFS hop distance over a directed edge-list Dataset:
    every node reachable from the seed set within ``rounds`` hops gets
    its MINIMUM hop count (seeds are hop 0).  All-int state, so an
    unrolled SQL twin (frontier-expand + MIN-merge CTE per round)
    reproduces it exactly at any partitioning.

    Size guard (the repo's standard pattern): while the visited set fits
    ``BROADCAST_LIMIT_BYTES`` (16 B/node, judged on ``approx_num_nodes``
    when given, else on the seed count as a floor), each round is ONE
    streaming edge pass — the CURRENT frontier ships via ``ray.put``,
    per-batch vectorized membership (searchsorted) emits unique new
    dsts, and the driver setdiffs against the visited vector.  Past the
    guard, the V-scale BSP leg runs: one bucketed edges×frontier
    co-shuffle join with a per-bucket distinct combine, a bucketed
    distinct on dst, and a bucketed anti-join against the visited set —
    nothing driver-sized.  Frontier-only expansion (not the whole
    visited set) is what keeps round r's exchange proportional to the
    NEW surface, the textbook BSP BFS shape."""
    from .relational import bucketed_hash_join, bucketed_semi_join

    guard_n = approx_num_nodes if approx_num_nodes is not None \
        else seeds_ds.count()
    if guard_n * 16 <= util.BROADCAST_LIMIT_BYTES:
        return _bfs_broadcast(edges_ds, seeds_ds, node_col, src_col,
                              dst_col, rounds)

    edges = edges_ds.materialize()
    dist = seeds_ds.map_batches(
        lambda b, _c=node_col: pa.table(
            {"_bk": b[_c],
             "hops": pa.array(np.zeros(b.num_rows, dtype=np.int64))}),
        batch_format="pyarrow").materialize()
    frontier = dist

    def to_key(batch: pa.Table) -> pa.Table:
        return pa.table({"_bk": batch[src_col], "dst": batch[dst_col]})

    for r in range(1, rounds + 1):
        if frontier.count() == 0:
            break
        j = bucketed_hash_join(
            edges.map_batches(to_key, batch_format="pyarrow"),
            frontier.select_columns(["_bk"]), on="_bk",
            # bucket is on src, so this distinct is bucket-local — it
            # shrinks the next exchange, the dst-bucket pass finishes it
            combine=lambda t: pa.table(
                {"dst": pc.unique(t["dst"])}))

        def distinct_dst(t: pa.Table) -> pa.Table:
            return pa.table({"_bk": pc.unique(t["dst"])})

        cand = bucket_shuffle(
            j, "_bk", lambda t: pa.table({"_bk": pc.unique(t["_bk"])}),
            prepare=distinct_dst, batch_format="pyarrow")
        new = bucketed_semi_join(cand, dist.select_columns(["_bk"]),
                                 on="_bk", anti=True) \
            .map_batches(
                lambda b, _r=r: pa.table(
                    {"_bk": b["_bk"],
                     "hops": pa.array(np.full(b.num_rows, _r,
                                              dtype=np.int64))}),
                batch_format="pyarrow").materialize()
        dist = dist.union(new).materialize()
        frontier = new

    return dist.map_batches(
        lambda b, _c=node_col: pa.table({_c: b["_bk"], "hops": b["hops"]}),
        batch_format="pyarrow")


def _bfs_broadcast(edges_ds, seeds_ds, node_col, src_col, dst_col, rounds):
    import ray
    import ray.data as rd

    from .relational import ds_to_table

    seeds = np.unique(np.concatenate(
        [b[node_col].to_numpy(zero_copy_only=False)
         for b in seeds_ds.iter_batches(batch_format="pyarrow")]
        or [np.array([], dtype=np.int64)]).astype(np.int64))
    visited = seeds
    hops = np.zeros(len(seeds), dtype=np.int64)
    frontier = seeds
    edges = edges_ds.materialize()

    for r in range(1, rounds + 1):
        if len(frontier) == 0:
            break
        f_ref = ray.put(frontier)          # sorted — searchsorted probe

        def hit(batch: pa.Table) -> pa.Table:
            f = ray.get(f_ref)
            s = batch[src_col].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            i = np.searchsorted(f, s)
            i[i >= len(f)] = 0
            m = f[i] == s
            d = np.unique(batch[dst_col].to_numpy(zero_copy_only=False)
                          .astype(np.int64)[m])
            return pa.table({"d": pa.array(d)})

        cand = ds_to_table(edges.map_batches(hit, batch_format="pyarrow"))
        new = np.setdiff1d(
            np.unique(cand["d"].to_numpy(zero_copy_only=False)), visited)
        visited = np.concatenate([visited, new])
        hops = np.concatenate([hops, np.full(len(new), r, dtype=np.int64)])
        order = np.argsort(visited, kind="stable")
        visited, hops = visited[order], hops[order]
        frontier = new if len(new) == 0 else np.sort(new)

    return rd.from_arrow(pa.table({node_col: pa.array(visited),
                                   "hops": pa.array(hops)}))


def sssp_rounds(edges_ds, seeds_ds, node_col: str = "v",
                src_col: str = "src", dst_col: str = "dst",
                weight_col: str = "w", rounds: int = 3,
                approx_num_nodes: int | None = None):
    """Bounded-hop single/multi-source shortest path (min-plus
    Bellman-Ford): after ``rounds`` relaxations every node reachable
    from the seed set within ``rounds`` edges carries the MIN path
    weight over such paths (integer weights — all-int state, so an
    unrolled relax + MIN-merge SQL twin matches exactly).

    Changed-only frontier: distances only decrease, so a node whose
    distance did not improve in round r contributes nothing new in
    round r+1 — each round joins edges against the CHANGED set only
    (the Bellman-Ford analogue of BFS frontier expansion; on a
    converged region the exchange shrinks to zero).  Size guard as
    bfs_hops: small graphs run a driver-merged streaming-pass leg,
    large run the bucketed BSP leg (join with per-bucket min combine +
    one bucketed min-merge per round)."""
    from .relational import bucketed_hash_join

    _INF = np.int64(2**62)

    guard_n = approx_num_nodes if approx_num_nodes is not None \
        else seeds_ds.count()
    if guard_n * 16 <= util.BROADCAST_LIMIT_BYTES:
        return _sssp_broadcast(edges_ds, seeds_ds, node_col, src_col,
                               dst_col, weight_col, rounds)

    edges = edges_ds.materialize()

    def seed_rows(b: pa.Table) -> pa.Table:
        return pa.table({
            "_bk": b[node_col],
            "d": pa.array(np.zeros(b.num_rows, dtype=np.int64))})

    dist = seeds_ds.map_batches(seed_rows,
                                batch_format="pyarrow").materialize()
    changed = dist

    def to_key(batch: pa.Table) -> pa.Table:
        return pa.table({"_bk": batch[src_col], "dst": batch[dst_col],
                         "w": batch[weight_col]})

    def relax(t: pa.Table) -> pa.Table:
        # per-bucket (bucketed on src) partial min per dst
        nd = pc.add(t["d"], t["w"])
        g = pa.table({"dst": t["dst"], "nd": nd}) \
            .group_by("dst").aggregate([("nd", "min")])
        return pa.table({"dst": g["dst"], "nd": g["nd_min"]})

    for _ in range(rounds):
        if changed.count() == 0:
            break
        j = bucketed_hash_join(
            edges.map_batches(to_key, batch_format="pyarrow"),
            changed, on="_bk", combine=relax)

        def cand_rows(b: pa.Table) -> pa.Table:
            return pa.table({
                "_bk": b["dst"], "d": b["nd"],
                "old": pa.array(np.full(b.num_rows, _INF))})

        def old_rows(b: pa.Table) -> pa.Table:
            return pa.table({"_bk": b["_bk"], "d": b["d"],
                             "old": b["d"]})

        def min_merge(t: pa.Table) -> pa.Table:
            g = t.group_by("_bk").aggregate([("d", "min"),
                                             ("old", "min")])
            return pa.table({"_bk": g["_bk"], "d": g["d_min"],
                             "old": g["old_min"]})

        u = bucket_shuffle(
            j.map_batches(cand_rows, batch_format="pyarrow")
            .union(dist.map_batches(old_rows, batch_format="pyarrow")),
            "_bk", min_merge,
            batch_format="pyarrow").materialize()
        dist = u.select_columns(["_bk", "d"]).materialize()
        changed = u.map_batches(
            lambda b: pa.table(
                {"_bk": b["_bk"], "d": b["d"]}).filter(
                    pc.less(b["d"], b["old"])),
            batch_format="pyarrow").materialize()

    return dist.map_batches(
        lambda b, _c=node_col: pa.table({_c: b["_bk"], "dist": b["d"]}),
        batch_format="pyarrow")


def _sssp_broadcast(edges_ds, seeds_ds, node_col, src_col, dst_col,
                    weight_col, rounds):
    import ray
    import ray.data as rd

    from .relational import ds_to_table

    seeds = np.unique(np.concatenate(
        [b[node_col].to_numpy(zero_copy_only=False)
         for b in seeds_ds.iter_batches(batch_format="pyarrow")]
        or [np.array([], dtype=np.int64)]).astype(np.int64))
    ids = seeds.copy()
    d = np.zeros(len(seeds), dtype=np.int64)
    ch_ids, ch_d = ids, d
    edges = edges_ds.materialize()

    for _ in range(rounds):
        if len(ch_ids) == 0:
            break
        f_ref = ray.put((ch_ids, ch_d))     # sorted ids + dists

        def relax(batch: pa.Table) -> pa.Table:
            fi, fd = ray.get(f_ref)
            s = batch[src_col].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            i = np.searchsorted(fi, s)
            i[i >= len(fi)] = 0
            m = fi[i] == s
            dst = batch[dst_col].to_numpy(zero_copy_only=False) \
                .astype(np.int64)[m]
            nd = fd[i[m]] + batch[weight_col] \
                .to_numpy(zero_copy_only=False).astype(np.int64)[m]
            # batch-local min per dst
            if len(dst) == 0:
                return pa.table({"dst": pa.array([], type=pa.int64()),
                                 "nd": pa.array([], type=pa.int64())})
            order = np.lexsort((nd, dst))
            dst, nd = dst[order], nd[order]
            first = np.concatenate([[True], dst[1:] != dst[:-1]])
            return pa.table({"dst": pa.array(dst[first]),
                             "nd": pa.array(nd[first])})

        cand = ds_to_table(edges.map_batches(relax,
                                             batch_format="pyarrow"))
        cd = cand["dst"].to_numpy(zero_copy_only=False)
        cn = cand["nd"].to_numpy(zero_copy_only=False)
        order = np.lexsort((cn, cd))
        cd, cn = cd[order], cn[order]
        first = np.concatenate([[True], cd[1:] != cd[:-1]]) \
            if len(cd) else np.array([], dtype=bool)
        cd, cn = cd[first], cn[first]
        pos = np.searchsorted(ids, cd)
        known = (pos < len(ids))
        known[known] = ids[pos[known]] == cd[known]
        improved = known & (cn < d[np.minimum(pos, len(ids) - 1)])
        new_nodes = ~known
        # apply improvements
        d[pos[improved]] = cn[improved]
        ids = np.concatenate([ids, cd[new_nodes]])
        d = np.concatenate([d, cn[new_nodes]])
        order = np.argsort(ids, kind="stable")
        ids, d = ids[order], d[order]
        ch_ids = np.concatenate([cd[improved], cd[new_nodes]])
        ch_d = np.concatenate([cn[improved], cn[new_nodes]])
        order = np.argsort(ch_ids, kind="stable")
        ch_ids, ch_d = ch_ids[order], ch_d[order]

    return rd.from_arrow(pa.table({node_col: pa.array(ids),
                                   "dist": pa.array(d)}))


def k_core(edges_ds, k: int = 2, rounds: int = 3,
           src_col: str = "src", dst_col: str = "dst"):
    """Bounded k-core peeling over an undirected graph given as a
    directed edge list (symmetrized + self-loop-dropped + deduped
    internally).  Each peel round recomputes every surviving node's
    degree in the surviving subgraph and drops nodes with degree < k
    (and their incident edges) — ``rounds`` rounds of the classic
    iterative peel, the spam-farm / cohesive-subgraph filter a link
    corpus runs before ranking.  Returns a Dataset of
    (v, deg) = the survivors of the final round with their degree in
    the FINAL filtered edge set (a survivor whose neighbors were all
    peeled in the last round reports deg 0, matching the SQL twin's
    LEFT JOIN + COALESCE).  All-int state — an unrolled CTE twin
    reproduces it exactly at any partitioning.

    Size guard (the repo's standard pattern): while the node set fits
    ``BROADCAST_LIMIT_BYTES`` (16 B/node), each round is one streaming
    degree aggregate plus ONE edge pass filtering both endpoints
    against the broadcast survivor vector (sorted searchsorted probe).
    Past the guard, the V-scale BSP leg runs each round as a degree
    groupby plus two bucketed semi-joins (src then dst) — nothing
    driver-sized."""
    import ray
    from ray.data.aggregate import Count, Sum

    from .relational import bucketed_semi_join, ds_to_table

    def norm(batch: pa.Table) -> pa.Table:
        s = batch[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        m = s != d
        s, d = s[m], d[m]
        t = pa.table({"a": pa.array(np.concatenate([s, d])),
                      "b": pa.array(np.concatenate([d, s]))})
        return t.group_by(["a", "b"]).aggregate([])

    edges = edges_ds.map_batches(norm, batch_format="pyarrow") \
        .groupby(["a", "b"]).aggregate(Count(alias_name="_n")) \
        .map_batches(lambda t: t.select(["a", "b"]),
                     batch_format="pyarrow").materialize()

    def deg_partial(t: pa.Table) -> pa.Table:
        # symmetric edge list: degree(v) = count of rows with a == v
        uniq, cnt = np.unique(
            t["a"].to_numpy(zero_copy_only=False).astype(np.int64),
            return_counts=True)
        return pa.table({"v": pa.array(uniq),
                         "pn": pa.array(cnt.astype(np.int64))})

    def degrees(e):
        return e.map_batches(deg_partial, batch_format="pyarrow") \
            .groupby("v").aggregate(Sum("pn", alias_name="deg"))

    deg = degrees(edges).materialize()
    broadcast_ok = deg.count() * 16 <= util.BROADCAST_LIMIT_BYTES

    if broadcast_ok:
        surv = np.array([], dtype=np.int64)
        for _ in range(rounds):
            dt = ds_to_table(deg)
            v = dt["v"].to_numpy(zero_copy_only=False).astype(np.int64)
            dv = dt["deg"].to_numpy(zero_copy_only=False).astype(np.int64)
            surv = np.sort(v[dv >= k])
            ref = ray.put(surv)

            def keep(batch: pa.Table) -> pa.Table:
                s = ray.get(ref)
                a = batch["a"].to_numpy(zero_copy_only=False)
                b = batch["b"].to_numpy(zero_copy_only=False)
                ia = np.searchsorted(s, a)
                ib = np.searchsorted(s, b)
                ia[ia >= len(s)] = max(len(s) - 1, 0)
                ib[ib >= len(s)] = max(len(s) - 1, 0)
                m = np.zeros(batch.num_rows, dtype=bool) if len(s) == 0 \
                    else (s[ia] == a) & (s[ib] == b)
                return batch.filter(pa.array(m))

            edges = edges.map_batches(keep, batch_format="pyarrow") \
                .materialize()
            # deg is consumed exactly once (next round's ds_to_table):
            # no materialize barrier needed on it
            deg = degrees(edges)

        dt = ds_to_table(deg)
        v = dt["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        dv = dt["deg"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(v, surv)
        out_deg = np.zeros(len(surv), dtype=np.int64)
        if len(v):
            pos2 = np.minimum(pos, len(v) - 1)
            hit = v[pos2] == surv
            out_deg[hit] = dv[pos2[hit]]
        import ray.data as rd
        return rd.from_arrow(pa.table({"v": pa.array(surv),
                                       "deg": pa.array(out_deg)}))

    # V-scale BSP leg: degree groupby + two bucketed endpoint semi-joins
    surv_ds = None
    for _ in range(rounds):
        surv_ds = deg.filter(expr=f"deg >= {k}") \
            .select_columns(["v"]).materialize()
        e1 = bucketed_semi_join(
            edges.map_batches(
                lambda t: pa.table({"v": t["a"], "b": t["b"]}),
                batch_format="pyarrow"),
            surv_ds, on="v")
        edges = bucketed_semi_join(
            e1.map_batches(
                lambda t: pa.table({"a": t["v"], "v": t["b"]}),
                batch_format="pyarrow"),
            surv_ds, on="v") \
            .map_batches(lambda t: pa.table({"a": t["a"], "v": t["v"]}),
                         batch_format="pyarrow") \
            .map_batches(lambda t: pa.table({"a": t["a"], "b": t["v"]}),
                         batch_format="pyarrow").materialize()
        deg = degrees(edges).materialize()

    # final degrees LEFT-joined onto the survivor set (deg 0 kept)
    from .relational import bucketed_hash_join
    j = bucketed_hash_join(surv_ds, deg, on="v", how="left")

    def fin(t: pa.Table) -> pa.Table:
        d = t["deg"].fill_null(0) if "deg" in t.column_names \
            else pa.array(np.zeros(t.num_rows, dtype=np.int64))
        return pa.table({"v": t["v"], "deg": pc.cast(d, pa.int64())})

    return j.map_batches(fin, batch_format="pyarrow")


def local_clustering(edges_ds, src_col: str = "src", dst_col: str = "dst"):
    """Per-node triangle count + local clustering coefficient, built on
    the same degree-ordered orientation as ``triangle_count`` (wedges
    enumerated only at the (deg, id)-minimum vertex, O(m^1.5) total
    regardless of skew) — but keeping the PIVOT identity on each wedge
    so a closed wedge credits all three corners.  Returns a Dataset of
    (v, tri, deg, cc_nano) over every node of the undirected graph,
    cc_nano = round-half-up(2·tri·1e9 / (deg·(deg−1))), 0 when
    deg < 2 — all-int, so the SQL twin (3-way self-join on ordered
    edges) matches bit-for-bit.

    Scale shape: one edge-dedup groupby, one degree groupby, the
    orientation attach (size-guarded broadcast / bucketed join), one
    bucket shuffle for the pivot-keyed wedge explosion, one pair-key
    join whose per-bucket combine collapses matches to per-node count
    partials, and a final bounded groupby(v)."""
    import ray
    from ray.data.aggregate import Count, Sum

    from .relational import bucketed_hash_join, ds_to_table
    from .util import worker_cached

    def norm(batch: pa.Table) -> pa.Table:
        s = batch[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        m = s != d
        s, d = s[m], d[m]
        a, b = np.minimum(s, d), np.maximum(s, d)
        t = pa.table({"ea": pa.array(a), "eb": pa.array(b)})
        return t.group_by(["ea", "eb"]).aggregate([])

    und = edges_ds.map_batches(norm, batch_format="pyarrow") \
        .groupby(["ea", "eb"]).aggregate(Count(alias_name="_n")) \
        .map_batches(lambda t: t.select(["ea", "eb"]),
                     batch_format="pyarrow").materialize()

    def deg_partial(t: pa.Table) -> pa.Table:
        n = np.concatenate(
            [t["ea"].to_numpy(zero_copy_only=False),
             t["eb"].to_numpy(zero_copy_only=False)]).astype(np.int64)
        uniq, cnt = np.unique(n, return_counts=True)
        return pa.table({"v": pa.array(uniq),
                         "pn": pa.array(cnt.astype(np.int64))})

    deg = und.map_batches(deg_partial, batch_format="pyarrow") \
        .groupby("v").aggregate(Sum("pn", alias_name="deg")) \
        .materialize()

    if deg.count() * 16 <= util.BROADCAST_LIMIT_BYTES:
        deg_t = ds_to_table(deg)
        ids = deg_t["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        dv = deg_t["deg"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(ids)
        ref = ray.put((ids[order], dv[order]))

        def orient(t: pa.Table) -> pa.Table:
            _ids, _dv = worker_cached(("lcc_deg", ref),
                                      lambda: ray.get(ref))
            a = t["ea"].to_numpy(zero_copy_only=False).astype(np.int64)
            b = t["eb"].to_numpy(zero_copy_only=False).astype(np.int64)
            da = _dv[np.searchsorted(_ids, a)]
            db = _dv[np.searchsorted(_ids, b)]
            swap = db < da
            return pa.table({"lo": pa.array(np.where(swap, b, a)),
                             "hi": pa.array(np.where(swap, a, b))})

        oriented = und.map_batches(orient, batch_format="pyarrow")
    else:
        dega = deg.map_batches(
            lambda t: t.rename_columns(["ea", "deg_a"]),
            batch_format="pyarrow")
        degb = deg.map_batches(
            lambda t: t.rename_columns(["eb", "deg_b"]),
            batch_format="pyarrow")
        j = bucketed_hash_join(bucketed_hash_join(und, dega, on="ea"),
                               degb, on="eb")

        def orient2(t: pa.Table) -> pa.Table:
            a = t["ea"].to_numpy(zero_copy_only=False).astype(np.int64)
            b = t["eb"].to_numpy(zero_copy_only=False).astype(np.int64)
            da = t["deg_a"].to_numpy(zero_copy_only=False)
            db = t["deg_b"].to_numpy(zero_copy_only=False)
            swap = db < da
            return pa.table({"lo": pa.array(np.where(swap, b, a)),
                             "hi": pa.array(np.where(swap, a, b))})

        oriented = j.map_batches(orient2, batch_format="pyarrow")

    # pivot-keyed wedge explosion: distinct (lo, hi) partials bucket on
    # lo; per bucket a vectorized sorted repeat/ragged-arange pair walk
    # emits (pivot, a, b) with a < b (hi values sorted per pivot)
    def explode(group: pd.DataFrame) -> pa.Table:
        df = group.drop_duplicates(["lo", "hi"]).sort_values(["lo", "hi"])
        k = df.groupby("lo", sort=False).size().to_numpy()
        piv = df["lo"].to_numpy()[np.concatenate(
            [[0], np.cumsum(k)[:-1]])] if len(k) else np.array([], int)
        vals = df["hi"].to_numpy()
        off = np.zeros(len(k) + 1, dtype=np.int64)
        np.cumsum(k, out=off[1:])
        npair = k * (k - 1) // 2
        rep = np.repeat(np.arange(len(k)), npair)
        if int(npair.sum()) == 0:
            return pa.table({"pivot": pa.array([], type=pa.int64()),
                             "a": pa.array([], type=pa.int64()),
                             "b": pa.array([], type=pa.int64())})
        from .relational import _pair_index
        i, j = _pair_index(npair)
        return pa.table({
            "pivot": pa.array(piv[rep]),
            "a": pa.array(vals[off[rep] + i]),
            "b": pa.array(vals[off[rep] + j])})

    wedges = bucket_shuffle(
        oriented, "lo", explode,
        prepare=lambda t: t.group_by(["lo", "hi"]).aggregate([])) \
        .materialize()

    def zero_out():
        return deg.map_batches(
            lambda t: pa.table({
                "v": t["v"],
                "tri": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
                "deg": t["deg"],
                "cc_nano": pa.array(np.zeros(t.num_rows,
                                             dtype=np.int64))}),
            batch_format="pyarrow")

    if wedges.count() == 0:
        return zero_out()

    def pairkey(t: pa.Table, a: str, b: str) -> pa.Table:
        k = pc.binary_join_element_wise(
            pc.cast(t[a], pa.string()), pc.cast(t[b], pa.string()), " ")
        return t.append_column("_pk", k)

    w = wedges.map_batches(lambda t: pairkey(t, "a", "b"),
                           batch_format="pyarrow")
    e = und.map_batches(lambda t: pairkey(t, "ea", "eb"),
                        batch_format="pyarrow")

    def comb(t: pa.Table) -> pa.Table:
        # each matched row is one triangle (pivot, a, b): credit all
        # three corners; collapse to per-node partials inside the bucket
        n = np.concatenate([
            t["pivot"].to_numpy(zero_copy_only=False),
            t["a"].to_numpy(zero_copy_only=False),
            t["b"].to_numpy(zero_copy_only=False)]).astype(np.int64)
        uniq, cnt = np.unique(n, return_counts=True)
        return pa.table({"v": pa.array(uniq),
                         "pt": pa.array(cnt.astype(np.int64))})

    tri = bucketed_hash_join(w, e, on="_pk", combine=comb)
    if tri.count() == 0:
        return zero_out()
    tri = tri.groupby("v").aggregate(Sum("pt", alias_name="tri"))

    if deg.count() * 16 <= util.BROADCAST_LIMIT_BYTES:
        # broadcast regime: the tri table is V-bounded too — finish the
        # left attach driver-side (saves the attach shuffle AND the
        # final map stage; ~2 barriers off the critical path)
        import ray.data as rd
        deg_t2 = ds_to_table(deg)
        tri_t = ds_to_table(tri)
        vv = deg_t2["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        dd_ = deg_t2["deg"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        tv = tri_t["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        tc = tri_t["tri"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        o = np.argsort(vv)
        vv, dd_ = vv[o], dd_[o]
        tr = np.zeros(len(vv), dtype=np.int64)
        pos = np.searchsorted(vv, tv)
        tr[pos] = tc
        out = np.zeros(len(vv), dtype=np.int64)
        m = dd_ >= 2
        D = dd_[m] * (dd_[m] - 1)
        out[m] = np.array(
            [(2 * (2 * int(a) * 10 ** 9) + int(d)) // (2 * int(d))
             for a, d in zip(tr[m], D)], dtype=np.int64)
        return rd.from_arrow(pa.table({
            "v": pa.array(vv), "tri": pa.array(tr),
            "deg": pa.array(dd_), "cc_nano": pa.array(out)}))

    # LEFT-attach onto the full node set so tri-free nodes emit 0
    j = bucketed_hash_join(deg, tri, on="v", how="left")

    def fin(t: pa.Table) -> pa.Table:
        tr = t["tri"].fill_null(0).to_numpy(zero_copy_only=False) \
            .astype(np.int64) if "tri" in t.column_names \
            else np.zeros(t.num_rows, dtype=np.int64)
        dv = t["deg"].to_numpy(zero_copy_only=False).astype(np.int64)
        out = np.zeros(len(dv), dtype=np.int64)
        m = dv >= 2
        # cc_nano = round-half-up(2*tri*1e9 / (deg*(deg-1))) — python
        # ints: 2*tri*1e9 can pass int64 on dense mega-hubs
        D = dv[m] * (dv[m] - 1)
        out[m] = np.array(
            [(2 * (2 * int(a) * 10 ** 9) + int(d)) // (2 * int(d))
             for a, d in zip(tr[m], D)], dtype=np.int64)
        return pa.table({"v": t["v"], "tri": pa.array(tr),
                         "deg": pa.array(dv), "cc_nano": pa.array(out)})

    return j.map_batches(fin, batch_format="pyarrow")


def _normalize_undirected(edges_ds, src_col: str, dst_col: str):
    """Distinct undirected (ea < eb) edge Dataset from a directed edge
    list: per-batch distinct partials → one groupby (no pandas
    head(1))."""
    from ray.data.aggregate import Count

    def norm(batch: pa.Table) -> pa.Table:
        s = batch[src_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        d = batch[dst_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        m = s != d
        s, d = s[m], d[m]
        a, b = np.minimum(s, d), np.maximum(s, d)
        t = pa.table({"ea": pa.array(a), "eb": pa.array(b)})
        return t.group_by(["ea", "eb"]).aggregate([])

    return edges_ds.map_batches(norm, batch_format="pyarrow") \
        .groupby(["ea", "eb"]).aggregate(Count(alias_name="_n")) \
        .map_batches(lambda t: t.select(["ea", "eb"]),
                     batch_format="pyarrow")


def minimum_spanning_forest(edges_ds, weight_fn=None,
                            src_col: str = "src", dst_col: str = "dst",
                            max_rounds: int = 40):
    """Borůvka minimum spanning forest over an undirected weighted
    graph — the classic distributed MST algorithm: every round each
    component selects its minimum-weight OUTGOING edge (deterministic
    total order (w, ea, eb) makes the forest unique even with repeated
    weights), the selected edges merge components, and intra-component
    edges drop; components at least halve per round, so rounds are
    O(log V).

    Scale shape (the broadcast regime, same contract as k_core's
    broadcast leg): each round is ONE streaming edge pass — component
    labels attach from a broadcast sorted array (8 B/node), the
    per-batch partial keeps only each component's best candidate edge
    (≤ components rows per batch), and one tiny groupby + driver
    union-find (component-bounded, geometrically shrinking) closes the
    round.  The edge set itself never materializes on the driver.  For
    V past the broadcast budget the label attach becomes the standard
    bucketed-join BSP leg (not implemented here — documented
    partitioning assumption).

    ``weight_fn(ea, eb) -> int64`` derives weights from endpoints
    (default: a splitmix-style hash — deterministic, pseudo-unique).
    Returns (mst_edges_table, total_weight, n_components)."""
    import ray
    from ray.data.aggregate import Min

    from .relational import ds_to_table
    from .util import worker_cached

    if weight_fn is None:
        def weight_fn(a, b):
            x = (a * 2654435761 + b * 40503) & 0x7FFFFFFF
            return (x % 100000) + 1

    und = _normalize_undirected(edges_ds, src_col, dst_col)

    def add_weight(t: pa.Table) -> pa.Table:
        a = t["ea"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["eb"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column("w", pa.array(weight_fn(a, b)))

    wedges = und.map_batches(add_weight,
                             batch_format="pyarrow").materialize()

    # node set via a distributed distinct (V-bounded driver state —
    # the edge table itself stays in the object store)
    def node_partial(t: pa.Table) -> pa.Table:
        nn = np.unique(np.concatenate(
            [t["ea"].to_numpy(zero_copy_only=False),
             t["eb"].to_numpy(zero_copy_only=False)]).astype(np.int64))
        return pa.table({"node": pa.array(nn)})

    from ray.data.aggregate import Count as _Cnt
    nodes = np.sort(ds_to_table(
        wedges.map_batches(node_partial, batch_format="pyarrow")
        .groupby("node").aggregate(_Cnt(alias_name="_c"))
    )["node"].to_numpy(zero_copy_only=False).astype(np.int64))
    parent = {int(v): int(v) for v in nodes}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    chosen = []          # (w, ea, eb) rows of the forest
    for _ in range(max_rounds):
        comp_ids = nodes
        comp_lbl = np.array([find(int(v)) for v in nodes],
                            dtype=np.int64)
        ref = ray.put((comp_ids, comp_lbl))

        def best_partial(t: pa.Table) -> pa.Table:
            ids, lbl = worker_cached(("mst_comp", ref),
                                     lambda: ray.get(ref))
            a = t["ea"].to_numpy(zero_copy_only=False).astype(np.int64)
            b = t["eb"].to_numpy(zero_copy_only=False).astype(np.int64)
            w = t["w"].to_numpy(zero_copy_only=False).astype(np.int64)
            ca = lbl[np.searchsorted(ids, a)]
            cb = lbl[np.searchsorted(ids, b)]
            keep = ca != cb
            if not keep.any():
                return pa.table({"comp": pa.array([], type=pa.int64()),
                                 "pkey": pa.array([], type=pa.int64())})
            a, b, w = a[keep], b[keep], w[keep]
            ca, cb = ca[keep], cb[keep]
            # candidate for BOTH endpoint components; composite key
            # packs (w, ea, eb) into one int for a single Min aggregate
            # — w < 2^17, ids < 2^23 each here; guard the packing
            if (w.max() >= 1 << 17) or (a.max() >= 1 << 23) \
                    or (b.max() >= 1 << 23):
                raise ValueError("MST packing bound exceeded")
            key = (w << 46) | (a << 23) | b
            comp = np.concatenate([ca, cb])
            key2 = np.concatenate([key, key])
            df = pd.DataFrame({"comp": comp, "pkey": key2}) \
                .groupby("comp", sort=False).min().reset_index()
            return pa.Table.from_pandas(df, preserve_index=False)

        best = ds_to_table(
            wedges.map_batches(best_partial, batch_format="pyarrow")
            .groupby("comp").aggregate(Min("pkey", alias_name="key"))
        )
        if best.num_rows == 0:
            break
        keys = np.unique(best["key"].to_numpy(zero_copy_only=False)
                         .astype(np.int64))
        merged_any = False
        for k in keys:
            w = int(k >> 46)
            a = int((k >> 23) & ((1 << 23) - 1))
            b = int(k & ((1 << 23) - 1))
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
                chosen.append((w, a, b))
                merged_any = True
        if not merged_any:
            break

    comps = len({find(int(v)) for v in nodes})
    mst = pa.table({
        "ea": pa.array([a for _, a, _b in chosen], type=pa.int64()),
        "eb": pa.array([b for _, _a, b in chosen], type=pa.int64()),
        "w": pa.array([w for w, _a, _b in chosen], type=pa.int64())})
    total = int(sum(w for w, _a, _b in chosen))
    return mst, total, comps


def oriented_wedges_with_pivot(oriented_ds):
    """(pivot, a, b) wedge rows from a degree-oriented (lo → hi) edge
    Dataset: one lo-bucket shuffle, per-bucket vectorized ragged pair
    explosion (sorted repeat / arange index arithmetic — no per-key
    Python loop).  Out-degrees are O(√m)-bounded after orientation, so
    the explosion is O(m^1.5) total."""
    def explode(g: pd.DataFrame) -> pd.DataFrame:
        df = g.sort_values(["lo", "hi"])
        lo = df["lo"].to_numpy(np.int64)
        hi = df["hi"].to_numpy(np.int64)
        starts = np.ones(len(lo), dtype=bool)
        starts[1:] = lo[1:] != lo[:-1]
        seg = np.cumsum(starts) - 1
        first = np.where(starts)[0]
        counts = np.diff(np.append(first, len(lo)))
        if not len(lo):
            return pd.DataFrame({"pivot": [], "a": [], "b": []})
        # for each row i (as the FIRST of a pair), pair with the
        # j > i rows in the same segment
        reps = (counts[seg] - (np.arange(len(lo)) - first[seg]) - 1)
        reps = np.maximum(reps, 0)
        i_idx = np.repeat(np.arange(len(lo)), reps)
        offs = np.arange(len(i_idx)) - np.repeat(
            np.cumsum(np.append(0, reps))[:-1], reps)
        j_idx = i_idx + 1 + offs
        a = np.minimum(hi[i_idx], hi[j_idx])
        b = np.maximum(hi[i_idx], hi[j_idx])
        return pd.DataFrame({"pivot": lo[i_idx], "a": a, "b": b})

    return bucket_shuffle(oriented_ds, "lo", explode)


def k_truss(edges_ds, k: int = 4, src_col: str = "src",
            dst_col: str = "dst", max_rounds: int = 30):
    """k-truss decomposition: the maximal subgraph in which every edge
    participates in ≥ k−2 triangles — the cohesive-community standard
    one notch above k-core.  Iterative peel: per round, per-edge
    triangle support computes via degree-ordered wedge enumeration
    (O(m^1.5), skew-proof) + a broadcast edge-set close (vectorized
    searchsorted membership) + a triangle → 3-edges explode + one
    groupby; edges below support k−2 drop; stop at a fixed point.  If
    ``max_rounds`` exhausts first, the TRUE support of the current
    (possibly not yet stable) subgraph is recomputed and returned —
    never fabricated zeros.  Returns the surviving (ea, eb, support)
    table.

    The edge-set close and the degree attach are broadcast-regime
    (edge-key set ≤ budget) — the bucketed-join BSP variant is the
    documented scale path, same contract as triangle_count's
    fallback."""
    import ray
    from ray.data.aggregate import Sum

    from .relational import ds_to_table
    from .util import worker_cached

    empty = pa.table({"ea": pa.array([], type=pa.int64()),
                      "eb": pa.array([], type=pa.int64()),
                      "support": pa.array([], type=pa.int64())})

    def support_of(cur, ea, eb):
        """Per-edge triangle support of the current subgraph — one
        degree-oriented wedge pass + close + 3-edge explode."""
        nodes, deg = np.unique(np.concatenate([ea, eb]),
                               return_counts=True)
        dref = ray.put((nodes, deg))
        ekeys = np.sort(ea * (1 << 32) + eb)
        eref = ray.put(ekeys)

        def orient(tb: pa.Table) -> pa.Table:
            ids, dv = worker_cached(("truss_deg", dref),
                                    lambda: ray.get(dref))
            a = tb["ea"].to_numpy(zero_copy_only=False).astype(np.int64)
            b = tb["eb"].to_numpy(zero_copy_only=False).astype(np.int64)
            da = dv[np.searchsorted(ids, a)]
            db = dv[np.searchsorted(ids, b)]
            swap = db < da
            return pa.table({"lo": pa.array(np.where(swap, b, a)),
                             "hi": pa.array(np.where(swap, a, b))})

        wedges = oriented_wedges_with_pivot(
            cur.map_batches(orient, batch_format="pyarrow"))

        def close_and_explode(tb: pa.Table) -> pa.Table:
            ek = worker_cached(("truss_edges", eref),
                               lambda: ray.get(eref))
            p_ = tb["pivot"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            a = tb["a"].to_numpy(zero_copy_only=False).astype(np.int64)
            b = tb["b"].to_numpy(zero_copy_only=False).astype(np.int64)
            key = a * (1 << 32) + b
            pos = np.searchsorted(ek, key)
            pos = np.minimum(pos, len(ek) - 1)
            keep = ek[pos] == key          # vectorized membership
            p_, a, b = p_[keep], a[keep], b[keep]
            e1a, e1b = np.minimum(p_, a), np.maximum(p_, a)
            e2a, e2b = np.minimum(p_, b), np.maximum(p_, b)
            sa = np.concatenate([e1a, e2a, a])
            sb = np.concatenate([e1b, e2b, b])
            df = pd.DataFrame({"ea": sa, "eb": sb, "ps": 1}) \
                .groupby(["ea", "eb"], sort=False).sum().reset_index()
            return pa.Table.from_pandas(df, preserve_index=False)

        support = wedges.map_batches(close_and_explode,
                                     batch_format="pyarrow") \
            .groupby(["ea", "eb"]).aggregate(Sum("ps",
                                                 alias_name="support"))
        st = ds_to_table(support)
        full = np.zeros(len(ea), dtype=np.int64)
        if st.num_rows:
            sa = st["ea"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            sb = st["eb"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            sv = st["support"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            skey = sa * (1 << 32) + sb
            order = np.argsort(skey)
            skey, sv = skey[order], sv[order]
            ekey = ea * (1 << 32) + eb
            pos = np.searchsorted(skey, ekey)
            pos_c = np.minimum(pos, len(skey) - 1)
            hit = skey[pos_c] == ekey
            full[hit] = sv[pos_c[hit]]     # vectorized support lookup
        return full

    cur = _normalize_undirected(edges_ds, src_col, dst_col) \
        .materialize()
    for _ in range(max_rounds + 1):       # final pass reports support
        t = ds_to_table(cur)
        if t.num_rows == 0:
            return empty
        ea = t["ea"].to_numpy(zero_copy_only=False).astype(np.int64)
        eb = t["eb"].to_numpy(zero_copy_only=False).astype(np.int64)
        full = support_of(cur, ea, eb)
        keep = full >= (k - 2)
        if keep.all():
            return pa.table({"ea": pa.array(ea), "eb": pa.array(eb),
                             "support": pa.array(full)})
        import ray.data as rd
        cur = rd.from_arrow(pa.table({"ea": pa.array(ea[keep]),
                                      "eb": pa.array(eb[keep])})) \
            .materialize()
    # max_rounds+1 exhausted mid-peel: report the TRUE support of the
    # last subgraph (documented: possibly not yet the fixed point)
    t = ds_to_table(cur)
    if t.num_rows == 0:
        return empty
    ea = t["ea"].to_numpy(zero_copy_only=False).astype(np.int64)
    eb = t["eb"].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table({"ea": pa.array(ea), "eb": pa.array(eb),
                     "support": pa.array(support_of(cur, ea, eb))})


# ---------------------------------------------------------------------------
# HyperBall / ANF: neighborhood function + effective diameter via
# per-node HLL sketches (Palmer et al. ANF; Boldi-Rosa-Vigna HyperBall)
# ---------------------------------------------------------------------------

HB_P = 8                         # 2^8 = 256 registers (bytes) per node


def _hb_init_regs(nodes: np.ndarray) -> np.ndarray:
    """(rows, 256) uint8 register matrix where row i is the HLL sketch
    of the singleton {node_i}.  Rank uses only the TOP 32 bits of the
    56-bit remainder (capped at 33) so the float64 frexp bit-length
    trick stays EXACT — a 2⁻³³ statistical cap, zero determinism
    hazard."""
    h = pd.util.hash_array(nodes.astype(np.int64)).astype(np.uint64)
    m = 1 << HB_P
    idx = (h >> np.uint64(64 - HB_P)).astype(np.int64)
    rem = h & np.uint64((1 << (64 - HB_P)) - 1)
    top = (rem >> np.uint64(24)).astype(np.float64)   # top 32 bits
    _, exp = np.frexp(top)
    rho = np.where(top > 0, 33 - exp, 33).astype(np.uint8)
    regs = np.zeros((len(nodes), m), dtype=np.uint8)
    regs[np.arange(len(nodes)), idx] = rho
    return regs


def _hb_estimates(regs: np.ndarray) -> np.ndarray:
    """Row-wise HLL cardinality estimates for a (rows, m) register
    matrix — the vectorized twin of sketches._estimate (same alpha,
    same linear-counting switch)."""
    m = float(1 << HB_P)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(2.0 ** -regs.astype(np.float64),
                                 axis=1)
    zeros = np.count_nonzero(regs == 0, axis=1)
    lin = zeros > 0
    with np.errstate(divide="ignore"):
        lc = m * np.log(np.where(lin, m / np.maximum(zeros, 1), 1.0))
    return np.where((est <= 2.5 * m) & lin, lc, est)


def hyperball_nf(edges_ds, nodes_ds, node_col: str = "v",
                 src_col: str = "src", dst_col: str = "dst",
                 rounds: int = 4):
    """Approximate neighborhood function N(h) = Σ_v |ball(v, h)| for
    h = 0..rounds via HyperBall: every node carries a 256-register HLL
    of the set it can reach ALONG IN-EDGES REVERSED (i.e. ball(v, h) =
    nodes within h hops of v following edges forward means v's sketch
    absorbs its OUT-neighbours' sketches; here each round folds the
    sketch of edge SOURCE into edge DEST, giving |{u : u →≤h v}| —
    the in-ball, the convention ANF reports on directed graphs).

    Per round: one bucketed edges×state co-shuffle join ships each
    node's 256-byte sketch once per out-edge, then a node-bucket
    max-merge (np.maximum.reduceat over the sorted register stack — no
    per-node Python).  State is NEVER driver-materialized; per-round
    totals fold from per-batch estimate partials.  4 rounds over E
    edges move 256·E bytes each — the linear-memory alternative to the
    O(n·m) exact neighborhood function, the reason HyperBall runs on
    billion-node graphs."""
    import ray.data as rd

    from .relational import bucketed_hash_join, ds_to_table

    def init(b: pa.Table) -> pa.Table:
        nodes = b[node_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        regs = _hb_init_regs(nodes)
        return pa.table({"v": pa.array(nodes),
                         "regs": pa.array(list(regs.tobytes(order="C")
                                               [i * 256:(i + 1) * 256]
                                               for i in range(len(nodes))),
                                          type=pa.binary())})

    state = nodes_ds.map_batches(init, batch_format="pyarrow") \
        .materialize()

    def nf_total(st) -> float:
        def part(b: pa.Table) -> pa.Table:
            regs = np.frombuffer(b"".join(b["regs"].to_pylist()),
                                 dtype=np.uint8).reshape(-1, 256)
            return pa.table({"s": pa.array(
                [float(_hb_estimates(regs).sum())])})
        parts = ds_to_table(st.map_batches(part,
                                           batch_format="pyarrow"))
        return float(np.sum(parts["s"].to_numpy(zero_copy_only=False)))

    totals = [nf_total(state)]
    ekey = edges_ds.map_batches(
        lambda b: pa.table({"v": b[src_col], "dst": b[dst_col]}),
        batch_format="pyarrow").materialize()

    def merge(df: pd.DataFrame) -> pa.Table:
        vs = df["v"].to_numpy(np.int64)
        regs = np.frombuffer(b"".join(df["regs"].tolist()),
                             dtype=np.uint8).reshape(-1, 256)
        order = np.argsort(vs, kind="stable")
        vs, regs = vs[order], regs[order]
        starts = np.flatnonzero(np.r_[True, vs[1:] != vs[:-1]])
        merged = np.maximum.reduceat(regs, starts, axis=0)
        uv = vs[starts]
        return pa.table({"v": pa.array(uv),
                         "regs": pa.array(
                             [merged[i].tobytes()
                              for i in range(len(uv))],
                             type=pa.binary())})

    for _ in range(rounds):
        contrib = bucketed_hash_join(ekey, state, on="v") \
            .map_batches(lambda b: pa.table({"v": b["dst"],
                                             "regs": b["regs"]}),
                         batch_format="pyarrow")
        state = bucket_shuffle(state.union(contrib), "v", merge).materialize()
        totals.append(nf_total(state))
    return totals
