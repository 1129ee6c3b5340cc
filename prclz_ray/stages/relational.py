"""Relational operator helpers: broadcast joins, partitioned hash joins,
semi/anti joins, pre-aggregated groupbys, windowed aggregates.

These carry the reference's tabular semantics (sjoin/merge/groupby/concat,
SURVEY §2.4-2.6) onto Ray Data with the scale rules of the build brief:
broadcast small sides, pre-aggregate before shuffles, bucket both sides for
large-large joins.

Every two-sided shuffle join (``bucketed_semi_join``, ``bucketed_hash_join``,
``salted_join``, ``asof_join``, ``band_join`` and ``joins.pip_join_tiled``)
co-partitions through ``cogroup``; each supplies only its tagger and its
kernel.  Every one-sided keyed operator (sessions, LAG/LEAD, ranks,
running and moving windows, funnels, modes, dedup, posting lists)
hash-partitions through ``bucket_shuffle``; each supplies only its
per-batch ``prepare`` and its kernel.  Both helpers run the kernel once
per sorted block, which holds one or more whole keys.
"""
from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data.block import BlockAccessor

from . import util
from .util import worker_cached

# The hash-bucket count of every bucket-keyed exchange in the engine
# (``bucket_shuffle``, the bucket-keyed ``cogroup`` joins, the flagship's
# url-bucket sorts), and the range count of ``_global_prefix_scan``.
# Every caller reads it when called, never at import, so one
# ``monkeypatch.setattr(relational, "NUM_BUCKETS", n)`` reaches every
# shuffle.  A kernel runs once per sorted block whatever the count, so it
# only caps the fan-out: R = min(NUM_BUCKETS, max(2, CPUs)) reducers.
NUM_BUCKETS = 64


def ds_to_table(ds) -> pa.Table:
    """Materialize a (small!) Dataset into one Arrow table WITHOUT the
    row-wise take_all()/from_pylist path: fetch the block refs and concat
    zero-copy.

    The plan runs once, to completion, through ``materialize()``, which
    keeps the output schema. ``to_arrow_refs()`` on a lazy Dataset would
    run the plan and then ask for the schema, which re-runs its first
    block under a ``limit(1)`` and cancels the tasks still in flight."""
    if isinstance(ds, pa.Table):
        return ds
    ds = ds.materialize()
    all_tables = ray.get(ds.to_arrow_refs())
    # pandas-format blocks pass through to_arrow_refs unconverted
    all_tables = [pa.Table.from_pandas(t, preserve_index=False)
                  if isinstance(t, pd.DataFrame) else t for t in all_tables]
    tables = [t for t in all_tables if t.num_rows]
    if not tables:
        # a fully-filtered stream can emit schema-LESS empty blocks alongside
        # schema-carrying ones; any block that kept its fields wins
        for t in all_tables:
            if t.schema.names:
                return t
        return pa.schema([]).empty_table() if ds.schema() is None else \
            pa.Table.from_pylist([], schema=pa.schema(
                [(n, t) for n, t in zip(ds.schema().names, ds.schema().types)]))
    return pa.concat_tables(tables, promote_options="default")


def with_schema(ds):
    """``(ds, schema)`` without a cancelling probe.

    ``Dataset.schema()`` on a plan whose schema is not known up front
    (anything after a ``map_batches``) runs the plan's first block under a
    ``limit(1)`` and then cancels the tasks still in flight. Under load
    that cancel can crash the Ray 2.49 driver (a ``submitted_task_ref_count``
    check in its dependency resolver) or interrupt a worker mid-task and
    hang it. Here such a plan runs once, to completion, and the
    materialized Dataset is returned in place of ``ds``, so the caller
    consumes it without running the plan again. ``schema`` is None for an
    empty result, as ``Dataset.schema()`` is."""
    sch = ds.schema(fetch_if_missing=False)
    if sch is not None:
        return ds, sch
    ds = ds.materialize()
    return ds, ds.schema()


def _arrow_schema(schema) -> pa.Schema:
    """A Ray ``Schema`` (or an Arrow one) as a ``pa.Schema``."""
    return pa.schema(list(zip(schema.names, schema.types)))


def filter_rows(t: pa.Table, mask: np.ndarray) -> pa.Table:
    """``t.filter(mask)`` with no compute call when the mask keeps every
    row or none: in a Ray worker each Table-level compute call costs
    ~0.1 ms, and a co-partitioned block can hold one side only."""
    if mask.all():
        return t
    return t.filter(pa.array(mask)) if mask.any() else t.slice(0, 0)


def cogroup(left, right, key: str, key_type: pa.DataType, tag_left,
            tag_right, per_block, lschema, rschema,
            num_buckets: int | None = None):
    """Co-partition two Datasets on a tag key and run
    ``per_block(lpart, rpart) -> pa.Table`` once per shuffled block: the
    one shape behind every two-sided shuffle join (hash buckets, salted
    sub-buckets, band replicas, S2 tiles).

    ``tag_left``/``tag_right`` map a side's Arrow batch to its rows with
    the ``key`` column appended (they may replicate rows); their output
    holds at least that side's ``lschema``/``rschema`` columns.  Each
    side's single map casts the batch's columns to their declared types
    (a join declares its unified key types there, see ``_unify_keys``),
    tags, pads the columns it lacks with typed nulls and adds the side
    flag; the union schema comes from the two given schemas, so planning
    probes nothing.

    One sort shuffle on ``key`` follows, and ``per_block`` runs once per
    sorted block (``map_batches(batch_size=None)``), not once per key:
    the sort range-partitions on ``key`` and each reducer merges its
    input into one block, so a block holds one or more WHOLE keys.  A
    ``key`` that is a bounded hash bucket in ``[0, num_buckets)`` (the
    hash, semi and as-of joins pass ``NUM_BUCKETS``, the salted join
    ``NUM_BUCKETS * salt``) shuffles through ``sort_buckets``: R =
    min(num_buckets, max(2, CPUs)) reducers over known bucket ranges,
    each merging about 1/R of the tagged input into one block.  With
    ``num_buckets=None`` (S2 cells, band buckets: unbounded keys) Ray
    samples the ranges, one reducer per input block.  A
    block splits back into two Arrow parts holding their own side's
    columns plus ``key``, cast back to that side's schema: the null
    padding can round trip through a pandas block in the shuffle, which
    promotes int64 with nulls to float64 (the values are integral, so
    the cast is lossless).  A kernel whose tagger replicates rows over
    several keys (salted sub-buckets, band replicas, S2 tiles) must pair
    rows only within equal ``key``; one whose pairs already imply equal
    keys (a join on the column the key hashes) may ignore it."""
    lschema, rschema = _arrow_schema(lschema), _arrow_schema(rschema)
    types: dict[str, pa.DataType] = {}
    for sch in (lschema, rschema):
        for f in sch:
            types.setdefault(f.name, f.type)
    types.setdefault(key, key_type)
    types["_side"] = pa.int8()
    names = list(types)

    def tagged(tag, side: int, sch: pa.Schema):
        want = dict(zip(sch.names, sch.types))

        def f(batch: pa.Table) -> pa.Table:
            for i, (c, typ) in enumerate(zip(batch.schema.names,
                                             batch.schema.types)):
                if want.get(c, typ) != typ:
                    batch = batch.set_column(i, c, batch[c].cast(want[c]))
            t = tag(batch)
            n = t.num_rows
            return pa.table(
                [pa.array(np.full(n, side, dtype=np.int8)) if c == "_side"
                 else t[c] if c in t.column_names
                 else pa.nulls(n, type=types[c]) for c in names],
                names=names)
        return f

    keyed = [sch if key in sch.names
             else sch.append(pa.field(key, types[key]))
             for sch in (lschema, rschema)]

    def split(block: pa.Table) -> pa.Table:
        left = block["_side"].to_numpy() == 0
        parts = []
        for mask, sch in zip((left, ~left), keyed):
            p = filter_rows(block, mask).select(sch.names)
            parts.append(p if p.schema == sch else p.cast(sch))
        return per_block(*parts)

    l = left.map_batches(tagged(tag_left, 0, lschema), batch_format="pyarrow")
    r = right.map_batches(tagged(tag_right, 1, rschema),
                          batch_format="pyarrow")
    both = l.union(r)
    both = both.sort(key) if num_buckets is None \
        else sort_buckets(both, key, num_buckets)
    return both.map_batches(split, batch_format="pyarrow", batch_size=None)


def stable_bucket(col, num_buckets: int) -> np.ndarray:
    """Process-stable bucket assignment for an Arrow column.  Python's
    builtin ``hash(str)`` is randomized per process (PYTHONHASHSEED), so it
    must NEVER be used to co-partition two sides that hash in different
    worker processes — same key, different bucket, silently dropped rows.
    ``pd.util.hash_array`` is seed-stable across processes."""
    if isinstance(col, (pa.Array, pa.ChunkedArray)):
        if col.null_count and pa.types.is_integer(col.type):
            # to_numpy turns an int column with nulls into float64, which
            # hashes apart from the same values in a null-free batch
            col = pc.fill_null(col, 0)
        vals = col.to_numpy(zero_copy_only=False)
    else:
        vals = np.asarray(col)
    # normalize width so e.g. int32 and int64 keys of equal value hash
    # identically (the two join sides may carry different widths)
    if vals.dtype == object or vals.dtype.kind in ("U", "S"):
        h = pd.util.hash_array(vals.astype(object))
    elif vals.dtype.kind in ("i", "u"):
        h = pd.util.hash_array(vals.astype(np.int64, copy=False))
    elif vals.dtype.kind == "f":
        h = pd.util.hash_array(vals.astype(np.float64, copy=False))
    else:
        h = pd.util.hash_array(np.ascontiguousarray(vals))
    return (h % num_buckets).astype(np.int32)


def _cluster_cpus() -> int:
    """The cluster's CPU count, from Ray's resource metadata.  Unlike
    ``ray.put``, ``ray.cluster_resources`` does not start Ray on first
    use, so this does, as the Dataset's execution would."""
    if not ray.is_initialized():
        ray.init()
    return int(ray.cluster_resources().get("CPU", 1))


def sort_buckets(ds, col: str, num_buckets: int):
    """``ds.sort(col)`` for a bounded hash-bucket column (values in
    ``[0, num_buckets)``): the one exchange of every hash-bucket shuffle.

    Ray's sort samples its ranges and takes one reducer per INPUT block,
    although a ``num_buckets`` key fills at most ``num_buckets`` of them,
    and each reducer with its kernel task costs a fixed ~37 ms (one CPU,
    a 1,010-row flagship input).  Here the ranges are known: explicit
    ``boundaries`` split ``[0, num_buckets)`` into R = min(num_buckets,
    max(2, CPUs)) equal bucket ranges, so the fan-out follows the
    cluster, not the input's block count, and there is no sampling pass.
    Each reducer merges about 1/R of the (uniformly hashed) input into
    one block, so a bigger input needs more CPUs, not more buckets.
    There are always at least 2 reducers (Ray samples when given an
    empty list): a one-bucket key's first range is empty."""
    r = max(2, min(num_buckets, _cluster_cpus()))
    return ds.sort(col, boundaries=[num_buckets * i // r
                                    for i in range(1, r)])


def _restore_types(out, schema: pa.Schema) -> pa.Table:
    """A kernel's output as Arrow, each column named like an input column
    at the input's type where a pandas block changed it: an int column
    holding nulls comes back as float (integral values, so the cast is
    lossless), and an all-null one as null, float or object.  Otherwise a
    key's type would depend on whether its block held a null."""
    if isinstance(out, pd.DataFrame):
        out = pa.Table.from_pandas(out, preserve_index=False)
    want = dict(zip(schema.names, schema.types))
    for i, (c, typ) in enumerate(zip(out.schema.names, out.schema.types)):
        w = want.get(c, typ)
        if typ == w:
            continue
        if out[c].null_count == out.num_rows:
            out = out.set_column(i, c, pa.nulls(out.num_rows, w))
        elif pa.types.is_floating(typ) and pa.types.is_integer(w):
            out = out.set_column(i, c, out[c].cast(w))
    return out


def bucket_shuffle(ds, key: str, per_bucket, prepare=None,
                   batch_format: str = "pandas"):
    """Hash-partition ``ds`` on ``key`` into ``NUM_BUCKETS`` coarse buckets
    and run ``per_bucket(part)`` once per shuffled block: the one shape
    behind every one-sided keyed operator.  A bucket holds every row of
    each key hashed into it, and a block one or more whole buckets, so a
    per-key kernel sees whole keys (a null key is one key); the bucket
    count caps the distinct sort keys, so the shuffle sorts small ints
    instead of raw keys.

    One map tags each Arrow batch: the optional ``prepare(batch)`` runs
    first (column pruning with ``select``, a filter, a per-batch partial
    aggregate; it may return a pandas DataFrame), then
    ``stable_bucket(key)`` is appended as ``_bucket``.  One
    ``sort_buckets`` exchange follows: R = min(NUM_BUCKETS, max(2, CPUs))
    reducers over known bucket ranges, each merging about 1/R of the
    tagged input into one block (the memory bound: grow the cluster for
    a bigger input; over wide rows far larger than CPUs x block size a
    reducer holds many input blocks, so ``prepare`` should narrow them).
    ``per_bucket`` runs once per sorted block
    (``map_batches(batch_size=None)``; every row of a bucket is in one
    block), with the block in ``batch_format`` and the bucket column
    dropped; its name stays the Ray operator's name.  Its output
    comes back as Arrow, each input-named column at its input type
    (``_restore_types``), so a column's type does not depend on the
    block."""
    nb = NUM_BUCKETS

    def tag(batch: pa.Table) -> pa.Table:
        t = batch if prepare is None else prepare(batch)
        if isinstance(t, pd.DataFrame):
            t = pa.Table.from_pandas(t, preserve_index=False)
        # schema metadata (pandas') is an unhashable dict: Ray's shuffle
        # then unifies every block's schema and logs a warning per merge
        return t.replace_schema_metadata(None).append_column(
            "_bucket", pa.array(stable_bucket(t[key], nb)))

    @functools.wraps(per_bucket)
    def run(part: pa.Table) -> pa.Table:
        part = part.drop_columns(["_bucket"])
        out = per_bucket(BlockAccessor.for_block(part).to_pandas()
                         if batch_format == "pandas" else part)
        return _restore_types(out, part.schema)

    tagged = ds.map_batches(tag, batch_format="pyarrow")
    return sort_buckets(tagged, "_bucket", nb).map_batches(
        run, batch_format="pyarrow", batch_size=None)


def broadcast_join(big_ds, small, on: str, how: str = "inner",
                   suffix: str = "_r"):
    """Hash-join a big Dataset against a SMALL table: the small side is
    ``ray.put`` once (zero-copy plasma reads in every task) and joined
    per batch with the Arrow Acero kernel — no shuffle, no pandas
    round-trip, and null join keys match NOTHING (SQL semantics,
    consistent with ``bucketed_hash_join``; a pandas merge would pair
    NaN keys)."""
    if not isinstance(small, (pa.Table, pd.DataFrame)):
        small = ds_to_table(small)
    if isinstance(small, pd.DataFrame):
        small = pa.Table.from_pandas(small, preserve_index=False)
    small = small.combine_chunks()
    ref = ray.put(small)
    join_type = _ARROW_JOIN_TYPE[how]

    def merge(batch: pa.Table) -> pa.Table:
        s = ray.get(ref)              # zero-copy shared read per node
        batch = batch.combine_chunks()
        bt = batch.schema.field(on).type
        st = s.schema.field(on).type
        if bt != st:
            # Acero requires identical key types (pandas coerced
            # silently): cast both sides to the permissive-unified type
            key_t = pa.unify_schemas(
                [pa.schema([(on, bt)]), pa.schema([(on, st)])],
                promote_options="permissive").field(on).type
            if bt != key_t:
                batch = batch.set_column(
                    batch.schema.get_field_index(on), on,
                    batch[on].cast(key_t))
            if st != key_t:
                s = s.set_column(s.schema.get_field_index(on), on,
                                 s[on].cast(key_t))
        return batch.join(s, keys=on, join_type=join_type,
                          right_suffix=suffix)

    return big_ds.map_batches(merge, batch_format="pyarrow")


def semi_join(big_ds, keys, on: str, anti: bool = False):
    """Semi/anti join: broadcast the DEDUPED key column as an Arrow array,
    probe vectorized with ``pc.is_in`` per batch (reference analogue J5
    ``_parcels.py:91-93``).  The broadcast side is the narrow unique-key
    array only — ``ray.put`` once, read zero-copy in every task.  For a
    key side too large to broadcast use ``bucketed_semi_join``."""
    import pyarrow.compute as pc

    if hasattr(keys, "take_all"):          # a Dataset: pull ONLY the key col
        keys = ds_to_table(keys.select_columns([on]))
    if isinstance(keys, pa.Table):
        arr = pc.unique(keys[on].combine_chunks())
    elif isinstance(keys, (pa.Array, pa.ChunkedArray)):
        arr = pc.unique(keys)
    else:
        arr = pa.array(sorted(set(keys)))
    ref = ray.put(arr)

    def f(batch: pa.Table) -> pa.Table:
        ks = ray.get(ref)
        mask = pc.is_in(batch[on], value_set=ks)
        if anti:
            mask = pc.invert(mask)
        return batch.filter(pc.fill_null(mask, False))

    return big_ds.map_batches(f, batch_format="pyarrow")


def bucketed_semi_join(big_ds, keys_ds, on: str, anti: bool = False):
    """Shuffle semi/anti join for a key side too large to broadcast: both
    sides bucket on a stable key hash and co-group, then one vectorized
    isin per shuffled block of whole buckets.  One all-to-all exchange on
    narrow columns.
    Both sides bucket and probe at the permissive union of their key
    types (the hash is dtype-sensitive: int64 3 and float64 3.0 land in
    different buckets); the output keeps the big side's key type."""
    keys_only = keys_ds.select_columns([on]) if hasattr(keys_ds, "select_columns") \
        else keys_ds

    # empty-input degenerate cases (schema is None on a 0-row dataset):
    # empty big → empty out; empty keys → semi is empty, anti is identity
    big_ds, big_sch = with_schema(big_ds)
    if big_sch is None:
        return big_ds
    keys_only, keys_sch = with_schema(keys_only)
    if keys_sch is None:
        return big_ds if anti else big_ds.limit(0)
    tag = _bucket_tagger(on)

    out_sch = _arrow_schema(big_sch)

    def probe(lg: pa.Table, kg: pa.Table) -> pa.Table:
        # null keys drop on BOTH semi and anti, matching the broadcast
        # semi_join
        mask = pc.is_in(lg[on], value_set=pc.unique(kg[on].combine_chunks()))
        if anti:
            mask = pc.invert(mask)
        out = lg.filter(pc.fill_null(mask, False)).drop_columns(["_bucket"])
        return out if out.schema == out_sch else out.cast(out_sch)

    return cogroup(big_ds, keys_only, "_bucket", pa.int32(), tag, tag, probe,
                   *_unify_keys(big_sch, keys_sch, [on]),
                   num_buckets=NUM_BUCKETS)


def _bucket_tagger(col: str, drop_null: bool = False):
    """A bucket-keyed ``cogroup``'s tagger: ``stable_bucket(batch[col],
    NUM_BUCKETS)`` appended as ``_bucket``.  With ``drop_null`` a row
    whose ``col`` is null leaves first: it can match nothing."""
    nb = NUM_BUCKETS

    def tag(batch: pa.Table) -> pa.Table:
        if drop_null and batch[col].null_count:
            batch = batch.filter(pc.is_valid(batch[col]))
        return batch.append_column(
            "_bucket", pa.array(stable_bucket(batch[col], nb)))
    return tag


_ARROW_JOIN_TYPE = {"inner": "inner", "left": "left outer",
                    "right": "right outer", "outer": "full outer"}


def _unify_keys(lsch, rsch, keys: list[str]):
    """Both sides' schemas, as Arrow, with each key column at the
    permissive union of its two types; ``cogroup`` casts each side to its
    schema before the tagger runs.  The bucket hash is dtype-sensitive, so
    int64 on one side vs float64 (e.g. null-promoted by an upstream outer
    join) on the other would land the SAME key in different buckets and
    silently drop matches; Acero and ``merge_asof`` also want identical key
    types."""
    lsch, rsch = _arrow_schema(lsch), _arrow_schema(rsch)
    for k in keys:
        t = pa.unify_schemas([pa.schema([s.field(k)]) for s in (lsch, rsch)],
                             promote_options="permissive").field(k).type
        lsch, rsch = (s.set(s.get_field_index(k), pa.field(k, t))
                      for s in (lsch, rsch))
    return lsch, rsch


def _bucket_join(left_ds, right_ds, on: str, how: str, tag_left, tag_right,
                 num_buckets: int, combine=None):
    """The per-block Arrow (Acero) hash join under ``cogroup`` that
    ``bucketed_hash_join`` and ``salted_join`` share, over key types
    unified across the sides.  It joins on ``(on, _bucket)``: a block
    holds several buckets, and a salted hot right row replicates into
    every sub-bucket, so a left row pairs only with the replica tagged
    with its own bucket, in ``[0, num_buckets)``.  Null keys never match
    (SQL semantics, unlike a pandas merge, which pairs NaN keys)."""
    left_ds, lsch = with_schema(left_ds)
    right_ds, rsch = with_schema(right_ds)
    lsch, rsch = _unify_keys(lsch, rsch, [on])
    join_type = _ARROW_JOIN_TYPE[how]

    def join_bucket(lg: pa.Table, rg: pa.Table) -> pa.Table:
        # the Acero join wants flat input
        merged = lg.combine_chunks().join(
            rg.combine_chunks(), keys=[on, "_bucket"], join_type=join_type,
            right_suffix="_r").drop_columns(["_bucket"])
        return merged if combine is None else combine(merged)

    return cogroup(left_ds, right_ds, "_bucket", pa.int32(), tag_left,
                   tag_right, join_bucket, lsch, rsch,
                   num_buckets=num_buckets)


def bucketed_hash_join(left_ds, right_ds, on: str, how: str = "inner",
                       combine=None):
    """Large×large partitioned hash join: both sides get
    bucket = hash(key) % B, co-grouped by bucket, one Arrow (Acero) hash
    join per shuffled block of whole buckets (guide's portable pattern;
    salt hot keys upstream if skewed).  Null keys never match — SQL semantics, unlike a pandas
    merge which pairs NaN keys with each other.

    ``combine``: optional post-join hook ``fn(pa.Table) -> pa.Table``
    run INSIDE the join task on each shuffled block's merged table.
    Because every occurrence of a join key lands in exactly one block, a
    groupby on the JOIN key inside ``combine`` is a FULL aggregation —
    fusing the downstream ``groupby(join_key)`` deletes its whole
    shuffle; grouping any other key yields block-local partials that
    shrink the next exchange to ≤ blocks × |groups| rows.  At 100 TB this is the
    difference between re-shuffling every joined row and moving a few
    thousand aggregate rows."""
    tag = _bucket_tagger(on)
    return _bucket_join(left_ds, right_ds, on, how, tag, tag, NUM_BUCKETS,
                        combine)


def set_op(left_ds, right_ds, on: str, op: str = "intersect"):
    """Distinct set operation over a key column — SQL's INTERSECT /
    EXCEPT (both DISTINCT by definition).  Scale shape: each side
    collapses to per-batch distinct keys tagged with its side (hot keys
    dedupe inside the batch first), the union goes through ONE
    ``bucket_shuffle`` on the key, and per shuffled block one Arrow
    group_by finds each key's sides — no driver-side sets, no second
    exchange.  A null key is one key, as in SQL's set operations."""
    if op not in ("intersect", "except"):
        raise ValueError(f"op must be intersect|except, got {op!r}")

    def tag(right: int):
        def f(batch: pa.Table) -> pa.Table:
            t = batch.select([on]).group_by(on).aggregate([])
            return t.append_column("_right", pa.array(
                np.full(t.num_rows, right, dtype=np.int8)))
        return f

    def pick(t: pa.Table) -> pa.Table:
        g = t.group_by(on).aggregate([("_right", "min"), ("_right", "max")])
        lo = g["_right_min"].to_numpy(zero_copy_only=False)
        hi = g["_right_max"].to_numpy(zero_copy_only=False)
        keep = (lo == 0) & (hi == 1) if op == "intersect" else hi == 0
        return filter_rows(g.select([on]), keep)

    tagged = left_ds.map_batches(tag(0), batch_format="pyarrow") \
        .union(right_ds.map_batches(tag(1), batch_format="pyarrow"))
    return bucket_shuffle(tagged, on, pick, batch_format="pyarrow")


def asof_join(left_ds, right_ds, on: str, by: str,
              direction: str = "backward", suffix: str = "_r",
              tolerance=None, right_order_cols: list[str] | None = None):
    """Distributed as-of join: each left row matches the nearest right row
    with right.on <= left.on (direction='backward'; 'forward' flips it)
    within the same `by` key — the streaming-log "latest state at event
    time" join Ray Data has no primitive for.  ``tolerance`` (a
    pd.Timedelta / int matching `on`'s dtype) bounds the match window —
    the windowed-attribution variant; ``right_order_cols`` appends
    tie-break columns to the right side's sort so equal-`on` matches are
    deterministic — without it the winner is whatever order the shuffled
    rows arrived in.  Direction matters for WHICH tie wins: among
    equal-`on` right rows merge_asof takes the first in sort order for
    direction='forward' but the LAST for 'backward' (largest
    right_order_cols value).

    Scale shape: both sides hash-bucket on `by` (process-stable hash),
    co-group through ONE sort shuffle, pandas merge_asof per shuffled
    block of whole buckets (sides sorted by `on` inside the task).
    Partitioning assumption: a `by` key's full history fits one task — at
    100 TB salt the time axis instead (bucket by (key, time-range) and
    replicate right-side boundary rows one range forward).  Unmatched left
    rows are dropped (inner semantics, mirrors DuckDB ASOF JOIN), and so
    is a row with a null `by`: SQL's equality never holds on NULL, so the
    tagger drops those rows before the exchange.
    """
    left_ds, lsch = with_schema(left_ds)
    right_ds, rsch = with_schema(right_ds)
    lsch, rsch = _arrow_schema(lsch), _arrow_schema(rsch)
    # merge_asof emits the join keys once (from the left): right-side value
    # columns only.  A right column whose `on`/`by` values matter in the
    # output must be duplicated under another name before the join.
    out_rcols = {c: (c if c not in lsch.names else c + suffix)
                 for c in rsch.names if c not in (by, on)}
    out_schema = pa.schema(list(lsch) + [
        pa.field(out_rcols[f.name], f.type) for f in rsch
        if f.name in out_rcols])
    tag = _bucket_tagger(by, drop_null=True)

    def join_bucket(lg: pa.Table, rg: pa.Table) -> pa.Table:
        if not lg.num_rows or not rg.num_rows:
            return out_schema.empty_table()
        # a block holds several buckets; `by` already keeps them apart
        ldf = lg.to_pandas().sort_values(on, kind="stable")
        rdf = rg.drop_columns(["_bucket"]).to_pandas().sort_values(
            [on] + (right_order_cols or []), kind="stable")
        # sentinel marks matched rows (a right VALUE column may be null
        # legitimately); NaN-promoted int columns cast back via the schema
        rdf = rdf.assign(_rmatch=np.int8(1))
        merged = pd.merge_asof(ldf, rdf, on=on, by=by, direction=direction,
                               tolerance=tolerance, suffixes=("", suffix))
        matched = merged[merged["_rmatch"].notna()]
        return pa.Table.from_pandas(matched[out_schema.names],
                                    preserve_index=False).cast(out_schema)

    return cogroup(left_ds, right_ds, "_bucket", pa.int32(), tag, tag,
                   join_bucket, *_unify_keys(lsch, rsch, [on, by]),
                   num_buckets=NUM_BUCKETS)


def _band_buckets(batch: pa.Table, on: str,
                  radius: int | float) -> tuple[pa.Table, np.ndarray]:
    """``band_join``'s bucket ``floor(on / radius)`` of each row of
    ``batch``, with the rows it keeps: a null (or NaN) ``on`` is within no
    radius of anything, so its row leaves here, before it could pair with
    another null."""
    v = batch[on].to_numpy(zero_copy_only=False).astype(np.float64)
    keep = np.isfinite(v) & pc.is_valid(batch[on]).to_numpy(
        zero_copy_only=False)
    return filter_rows(batch, keep), \
        np.floor(v[keep] / radius).astype(np.int64)


def band_join(left_ds, right_ds, on: str, radius: int | float,
              suffix: str = "_r"):
    """Distributed range (band) join: every (l, r) pair with
    |l.on - r.on| <= radius — the non-equi join Ray Data has no primitive
    for (sessionization windows, price bands, sensor alignment).

    Scale shape: bucket width == radius, so a qualifying pair's buckets
    differ by at most 1.  Left rows go to their own bucket; right rows
    REPLICATE to bucket-1/bucket/bucket+1 (3× the narrow right columns,
    no dedup needed: each pair meets exactly once, in the left row's
    bucket).  Per shuffled block the right side sorts once and pairs
    enumerate via searchsorted + a ragged arange — no O(n²) scan; a block
    holds several buckets, and with them up to all three replicas of a
    right row, so a pair is kept only where the right replica's bucket
    is the left row's.  A null ``on`` matches nothing.  Skew
    guard: a hot value range can be sharded further upstream by salting
    `on` buckets; output is a stream, never a driver list.
    """
    left_ds, lsch = with_schema(left_ds)
    right_ds, rsch = with_schema(right_ds)
    lsch, rsch = _arrow_schema(lsch), _arrow_schema(rsch)
    out_rcols = [c if c not in lsch.names else c + suffix
                 for c in rsch.names]

    def tag_left(batch: pa.Table) -> pa.Table:
        batch, b = _band_buckets(batch, on, radius)
        return batch.append_column("_bucket", pa.array(b))

    def tag_right(batch: pa.Table) -> pa.Table:
        batch, b = _band_buckets(batch, on, radius)
        rep = batch.take(pa.array(np.repeat(np.arange(batch.num_rows), 3)))
        return rep.append_column("_bucket", pa.array(
            (b[:, None] + np.array([-1, 0, 1])).reshape(-1)))

    def join_bucket(lg: pa.Table, rg: pa.Table) -> pa.Table:
        rg = rg.take(pc.sort_indices(rg[on]))
        rv = rg[on].to_numpy(zero_copy_only=False).astype(np.float64)
        lv = lg[on].to_numpy(zero_copy_only=False).astype(np.float64)
        lo = np.searchsorted(rv, lv - radius, side="left")
        counts = np.searchsorted(rv, lv + radius, side="right") - lo
        # right indices: for each left row, the run lo[i]..hi[i)
        li = np.repeat(np.arange(len(lv)), counts)
        ri = np.repeat(lo, counts) + _ragged_arange(counts)
        same = lg["_bucket"].to_numpy()[li] == rg["_bucket"].to_numpy()[ri]
        out = lg.drop_columns(["_bucket"]).take(pa.array(li[same]))
        ri = pa.array(ri[same])
        for c, name in zip(rsch.names, out_rcols):
            out = out.append_column(name, rg[c].take(ri))
        return out

    return cogroup(left_ds, right_ds, "_bucket", pa.int64(), tag_left,
                   tag_right, join_bucket, lsch, rsch)


_TS_UNIT_FACTOR = {"s": 1, "ms": 1_000, "us": 1_000_000, "ns": 1_000_000_000}


def windowed_aggregate(events_ds, key_col: str, ts_col: str, value_col: str,
                       window_sec: int):
    """Tumbling-window aggregate: window id computed arrow-native per batch
    (epoch // window), pre-aggregated per (key, window) inside the batch
    with ``pa.TableGroupBy``, then merged in a coarse-bucket groupby (hash
    of key → ``NUM_BUCKETS`` groups, one vectorized arrow combine per
    bucket).  The shuffle moves batch-level partials, and the per-group
    machinery runs per BUCKET, not per (key, window) pair — Ray's
    full-sort aggregate over millions of fine-grained groups is ~2× slower
    (measured 3.0 s vs 1.4 s at sf0.1/32 cpus).  The exchange is
    ``bucket_shuffle``'s: min(NUM_BUCKETS, max(2, CPUs)) reducers, each
    merging about 1/R of the partials."""
    def partial(batch: pa.Table) -> pa.Table:
        arr = batch[ts_col]
        fac = _TS_UNIT_FACTOR[arr.type.unit] * window_sec
        win = pc.divide(pc.cast(arr, pa.int64()), fac)
        t = pa.table({key_col: batch[key_col], "window": win,
                      "v": batch[value_col]})
        g = t.group_by([key_col, "window"]).aggregate(
            [("v", "sum"), ("v", "count"), ("v", "max")])
        return pa.table({
            key_col: g[key_col], "window": g["window"],
            "part_sum": g["v_sum"], "part_n": g["v_count"],
            "part_max": g["v_max"],
        })

    def combine(t: pa.Table) -> pa.Table:
        g = t.group_by([key_col, "window"]).aggregate(
            [("part_sum", "sum"), ("part_n", "sum"), ("part_max", "max")])
        return pa.table({
            key_col: g[key_col], "window": g["window"],
            "sum_value": g["part_sum_sum"], "n_events": g["part_n_sum"],
            "max_value": g["part_max_max"],
        })

    return bucket_shuffle(events_ds, key_col, combine,
                          prepare=partial, batch_format="pyarrow")


def pack_desc_rank_key(value: np.ndarray, value_max: int,
                       ident: np.ndarray) -> np.ndarray:
    """Composite int64 key whose ASCENDING order is (value DESC,
    ident ASC): (value_max − value)·2³² + ident.  The packing bound —
    value_max < 2³¹ and ident < 2³² — is the invariant
    ``global_prefix_sum``'s unique-order contract rides on; callers
    get ONE guarded implementation instead of copy-pasting it
    (ABC analysis and the top-1 % share both rank this way)."""
    if len(value) and (value_max >= 1 << 31
                       or int(ident.max()) >= 1 << 32):
        raise ValueError("pack_desc_rank_key bound exceeded "
                         "(value_max < 2^31, ident < 2^32)")
    return (value_max - value) * (1 << 32) + ident


def exact_quantile_idx(cum: np.ndarray, k: int, K: int) -> int:
    """Exact-quantile boundary on a VALUE-DISTRIBUTION table: given
    cumulative counts ``cum`` of the sorted distinct values (int64,
    ``cum[-1] == N``), return the index of the smallest value whose
    cumulative count satisfies the pure-integer rule K·cum ≥ k·N —
    i.e. the k/K discrete quantile with no float-quantile ambiguity.
    One kernel shared by the equi-depth deciles (K=10), winsorized
    bounds (K=20), latency percentiles (K=100) and weighted median
    (K=2) operators; tie/edge conventions live HERE only."""
    if len(cum) == 0:
        raise ValueError("exact_quantile_idx: empty distribution")
    n = int(cum[-1])
    return int(np.searchsorted(K * cum, k * n, side="left"))


def grouped_quantile_disc(ds, key_col: str, val_col: str, qs: list[float],
                          bins: int = 2048):
    """EXACT per-group discrete quantiles (``quantile_disc`` semantics:
    the ceil(q*n)-th smallest element, 1-indexed) computed in two
    streaming passes — no per-group sort of the full data, no group ever
    materialized whole:

      A. per-batch partial (count, min, max) per key → tiny per-key stats
         groupby.  Target rank k_q = ceil(q*n) - 1 per (key, q).
      B. per-batch histogram partials over ``bins`` equal-width bins of
         [min, max] per key → per-key cumulative counts locate the one
         bin containing each target rank (and the residual rank inside
         that bin).
      C. one filtered pass keeps ONLY rows in a target (key, bin) —
         expected n/bins of the data per group — and a per-key sort of
         that small remainder selects the exact element.

    Bin assignment is the same float expression in passes B and C, so
    boundary placement is consistent and the selection is exact no matter
    how float rounding buckets edge values.  Known caveat: a point-mass
    bin (one value repeated ≥ rank-depth) cannot be range-refined, but
    then the repeated value IS the answer whenever the run covers the
    rank, which pass C's in-bin sort returns correctly; pathological
    non-equal mass inside one bin degrades pass C to an n_bin·log sort.

    Scale assumptions (documented): the per-key stats and target-bin maps
    are GROUP-cardinality-sized and broadcast via ``ray.put`` — right for
    dashboard-style group counts (nations, languages, domains).  Use
    exactly-representable q (0.25/0.5/0.75…) so ceil(q*n) has no float
    ambiguity (matches DuckDB ``quantile_disc``).

    Returns a pandas DataFrame: one row per key, one ``p{q}`` column per
    q (e.g. p25, p50, p75), keys ascending."""
    import ray

    qs = list(qs)

    def stats_partial(t: pa.Table) -> pa.Table:
        g = pa.table({key_col: t[key_col], "v": t[val_col]}) \
            .group_by(key_col).aggregate(
                [("v", "count"), ("v", "min"), ("v", "max")])
        return pa.table({key_col: g[key_col],
                         "n": g["v_count"].cast(pa.int64()),
                         "mn": g["v_min"], "mx": g["v_max"]})

    from ray.data.aggregate import Max, Min, Sum
    stats = ds.map_batches(stats_partial, batch_format="pyarrow") \
        .groupby(key_col).aggregate(
            Sum("n", alias_name="n"), Min("mn", alias_name="mn"),
            Max("mx", alias_name="mx")).to_pandas()

    # per-key: (min, range, n, {q: target rank k})
    key_info: dict = {}
    for r in stats.itertuples(index=False):
        ranks = {q: int(np.ceil(q * r.n)) - 1 for q in qs}
        key_info[r[0]] = (float(r.mn), float(r.mx), int(r.n), ranks)
    info_ref = ray.put(key_info)
    B = bins

    def assign_bins(keys: np.ndarray, vals: np.ndarray, info) -> np.ndarray:
        out = np.zeros(len(vals), dtype=np.int32)
        # vectorize per key present in the batch (group cardinality per
        # batch is small; the inner op is full-numpy)
        for k in np.unique(keys):
            mn, mx, _, _ = info[k]
            m = keys == k
            if mx > mn:
                b = np.floor((vals[m] - mn) / (mx - mn) * B)
                out[m] = np.clip(b, 0, B - 1).astype(np.int32)
        return out

    def hist_partial(t: pa.Table) -> pa.Table:
        info = ray.get(info_ref)
        keys = t[key_col].to_numpy(zero_copy_only=False)
        vals = t[val_col].to_numpy(zero_copy_only=False).astype(np.float64)
        bn = assign_bins(keys, vals, info)
        g = pa.table({key_col: pa.array(keys), "bin": pa.array(bn)}) \
            .group_by([key_col, "bin"]).aggregate([("bin", "count")])
        return pa.table({key_col: g[key_col], "bin": g["bin"],
                         "cnt": g["bin_count"].cast(pa.int64())})

    def locate(group: pd.DataFrame) -> pd.DataFrame:
        info = ray.get(info_ref)
        g = group.groupby("bin", as_index=False)["cnt"].sum() \
            .sort_values("bin")
        key = group[key_col].iloc[0]
        cum = g["cnt"].cumsum().to_numpy()
        below = cum - g["cnt"].to_numpy()
        rows = []
        for q, k in info[key][3].items():
            i = int(np.searchsorted(cum, k + 1))
            rows.append({key_col: key, "q": q,
                         "bin": int(g["bin"].iloc[i]),
                         "rank_in_bin": int(k - below[i])})
        return pd.DataFrame(rows)

    targets = ds.map_batches(hist_partial, batch_format="pyarrow") \
        .groupby(key_col).map_groups(locate, batch_format="pandas") \
        .to_pandas()
    # {(key, bin): [(q, rank_in_bin), ...]}
    tmap: dict = {}
    for r in targets.itertuples(index=False):
        tmap.setdefault((r[0], r.bin), []).append((r.q, r.rank_in_bin))
    tmap_ref = ray.put(tmap)

    def keep_targets(t: pa.Table) -> pa.Table:
        info = ray.get(info_ref)
        tm = ray.get(tmap_ref)
        keys = t[key_col].to_numpy(zero_copy_only=False)
        vals = t[val_col].to_numpy(zero_copy_only=False).astype(np.float64)
        bn = assign_bins(keys, vals, info)
        mask = np.zeros(len(keys), dtype=bool)
        for k in np.unique(keys):
            tbins = np.array([b for (kk, b) in tm if kk == k], dtype=np.int32)
            if len(tbins):
                m = keys == k
                mask[m] = np.isin(bn[m], tbins)
        return pa.table({key_col: pa.array(keys[mask]),
                         "v": pa.array(vals[mask]),
                         "bin": pa.array(bn[mask])})

    def select(group: pd.DataFrame) -> pd.DataFrame:
        tm = ray.get(tmap_ref)
        key = group[key_col].iloc[0]
        rows = []
        for b, sub in group.groupby("bin"):
            v = np.sort(sub["v"].to_numpy())
            for q, rib in tm[(key, b)]:
                rows.append({key_col: key, "q": q, "val": float(v[rib])})
        return pd.DataFrame(rows)

    picked = ds.map_batches(keep_targets, batch_format="pyarrow") \
        .groupby(key_col).map_groups(select, batch_format="pandas") \
        .to_pandas()
    wide = picked.pivot(index=key_col, columns="q", values="val")
    wide = wide.rename(columns={q: f"p{int(q * 100)}" for q in qs})
    wide.columns.name = None
    return wide.reset_index().sort_values(key_col).reset_index(drop=True)


def grouped_top_n(ds, key_col: str, order_col: str, n: int, id_col: str,
                  descending: bool = True):
    """Top-n rows PER GROUP (the ROW_NUMBER() ≤ n window pattern), with
    the deterministic tie-break ``ORDER BY order_col [DESC], id_col``.

    Scale shape: each batch first prunes itself to its own per-key top-n
    (vectorized sort + groupby-head), so the shuffle carries at most
    n·groups rows per BATCH rather than the full table; one groupby then
    finishes each key.  Emits the selected rows plus ``rnk`` (1-based)."""
    asc = [True, not descending, True]

    def prune(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(
            [key_col, order_col, id_col], ascending=asc)
        return pa.Table.from_pandas(df.groupby(key_col, sort=False).head(n),
                                    preserve_index=False)

    def final(group: pd.DataFrame) -> pa.Table:
        g = group.sort_values([order_col, id_col],
                              ascending=[not descending, True]).head(n)
        g = g.assign(rnk=np.arange(1, len(g) + 1, dtype=np.int64))
        return pa.Table.from_pandas(g, preserve_index=False)

    return ds.map_batches(prune, batch_format="pyarrow") \
        .groupby(key_col).map_groups(final, batch_format="pandas")


def grouped_corr(ds, key_col: str, x_col: str, y_col: str,
                 round_to: int = 4) -> pd.DataFrame:
    """Per-group Pearson correlation from MERGEABLE sufficient statistics:
    each batch contributes (n, Σx, Σy, Σx², Σy², Σxy) per key via one
    arrow group_by, a single small groupby-sum merges them, and the
    driver finishes with the textbook formula on group-cardinality rows.
    ONE narrow shuffle regardless of data size — the streaming shape for
    any moment-based statistic (cov/corr/regression slope/variance).

    Rounded to ``round_to`` decimals: double sums keep ~1e-12 relative
    precision at these magnitudes, far below the rounding grain, so the
    result hash-matches DuckDB's ``corr`` exactly."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        x = batch[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        y = batch[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        t = pa.table({key_col: batch[key_col],
                      "n": pa.array(np.ones(len(x))),
                      "sx": pa.array(x), "sy": pa.array(y),
                      "sxx": pa.array(x * x), "syy": pa.array(y * y),
                      "sxy": pa.array(x * y)})
        g = t.group_by(key_col).aggregate(
            [("n", "sum"), ("sx", "sum"), ("sy", "sum"),
             ("sxx", "sum"), ("syy", "sum"), ("sxy", "sum")])
        return g.rename_columns(
            [key_col, "n", "sx", "sy", "sxx", "syy", "sxy"])

    merged = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(key_col).aggregate(
            *[Sum(c, alias_name=c)
              for c in ("n", "sx", "sy", "sxx", "syy", "sxy")]) \
        .to_pandas()
    n = merged["n"]
    cov = merged["sxy"] - merged["sx"] * merged["sy"] / n
    vx = merged["sxx"] - merged["sx"] ** 2 / n
    vy = merged["syy"] - merged["sy"] ** 2 / n
    out = pd.DataFrame({
        key_col: merged[key_col],
        "n": n.astype("int64"),
        "corr": (cov / np.sqrt(vx * vy)).round(round_to),
    })
    return out.sort_values(key_col).reset_index(drop=True)


def grouped_regression(ds, key_col: str, x_col: str, y_col: str,
                       round_to: int = 4) -> pd.DataFrame:
    """Per-group simple linear regression (REGR_SLOPE / REGR_INTERCEPT)
    from the same mergeable sufficient statistics as ``grouped_corr`` —
    ONE narrow shuffle, driver finishes on group-cardinality rows."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        x = batch[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        y = batch[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        t = pa.table({key_col: batch[key_col],
                      "n": pa.array(np.ones(len(x))),
                      "sx": pa.array(x), "sy": pa.array(y),
                      "sxx": pa.array(x * x), "sxy": pa.array(x * y)})
        g = t.group_by(key_col).aggregate(
            [("n", "sum"), ("sx", "sum"), ("sy", "sum"),
             ("sxx", "sum"), ("sxy", "sum")])
        return g.rename_columns([key_col, "n", "sx", "sy", "sxx", "sxy"])

    merged = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(key_col).aggregate(
            *[Sum(c, alias_name=c)
              for c in ("n", "sx", "sy", "sxx", "sxy")]).to_pandas()
    n = merged["n"]
    slope = (merged["sxy"] - merged["sx"] * merged["sy"] / n) \
        / (merged["sxx"] - merged["sx"] ** 2 / n)
    intercept = merged["sy"] / n - slope * merged["sx"] / n
    out = pd.DataFrame({key_col: merged[key_col],
                        "n": n.astype("int64"),
                        "slope": slope.round(round_to),
                        "intercept": intercept.round(round_to)})
    return out.sort_values(key_col).reset_index(drop=True)


def sessionize(events_ds, user_col: str, ts_col: str, gap_sec: int):
    """Gap-based sessionization: consecutive events of a user belong to
    one session while the inter-event gap stays ≤ ``gap_sec``; a larger
    gap starts a new session.  Emits one row per session with
    ``session_idx`` (per-user ordinal from 1, identical to the SQL
    ``SUM(new_session) OVER (PARTITION BY user ORDER BY ts)`` convention),
    event count, start/end timestamps and duration in seconds.

    Scale shape: ONE shuffle — users hash into ``NUM_BUCKETS`` coarse
    buckets, and each bucket does a vectorized sort + diff + cumsum pass
    that both assigns sessions and aggregates them (a user's rows are
    fully contained in its bucket, so no second exchange).  Equal
    timestamps within a user are order-independent (gap 0 either way), so
    results are deterministic under any shuffle order.  A null user is
    one user.  The exchange is ``bucket_shuffle``'s: min(NUM_BUCKETS,
    max(2, CPUs)) reducers, each merging about 1/R of the events; salt
    only if one user dominates a bucket (that user's rows still fit the
    sort)."""
    def per_bucket(group: pd.DataFrame) -> pa.Table:
        df = group.sort_values([user_col, ts_col])
        u = df[user_col].to_numpy()
        # codes, not values: a null user is one user (NaN != NaN)
        code = pd.factorize(df[user_col], use_na_sentinel=False)[0]
        ts = df[ts_col].to_numpy()
        ts_i = ts.astype("datetime64[us]").astype(np.int64)
        same_user = np.r_[False, code[1:] == code[:-1]]
        gap = np.r_[0, np.diff(ts_i)]
        new_sess = (~same_user) | (gap > gap_sec * 1_000_000)
        g = np.cumsum(new_sess)  # global session id within bucket
        # aggregate per session run (sessions are contiguous after sort)
        starts = np.flatnonzero(new_sess)
        ends = np.r_[starts[1:], len(g)] - 1
        n_events = ends - starts + 1
        sess_user = u[starts]
        # per-user ordinal: sessions of a user are contiguous in `starts`
        first_of_user = np.r_[True, code[starts][1:] != code[starts][:-1]]
        user_start = np.maximum.accumulate(
            np.where(first_of_user, np.arange(len(starts)), 0))
        session_idx = np.arange(len(starts)) - user_start + 1
        return pa.table({
            user_col: pa.array(sess_user, from_pandas=True),
            "session_idx": pa.array(session_idx.astype(np.int64)),
            "n_events": pa.array(n_events.astype(np.int64)),
            "start_ts": pa.array(ts_i[starts].astype("datetime64[us]")),
            "end_ts": pa.array(ts_i[ends].astype("datetime64[us]")),
            "duration_sec": pa.array(
                (ts_i[ends] - ts_i[starts]) // 1_000_000),
        })

    return bucket_shuffle(events_ds, user_col, per_bucket,
                          prepare=lambda t: t.select([user_col, ts_col]))


def sliding_window_aggregate(events_ds, key_col: str, ts_col: str,
                             value_col: str, window_sec: int, slide_sec: int):
    """SLIDING-window aggregate (window W, slide S, W a multiple of S):
    an event at t belongs to every window starting in
    (t - W, t] on the slide grid — exactly W/S windows.  Per batch the
    membership explode is one vectorized repeat (rows × W/S), immediately
    collapsed by the same in-batch partial aggregation as the tumbling
    ``windowed_aggregate``, so the shuffle carries (key, window) partials,
    not the exploded rows.  Emits one row per (key, window_start_epoch_s)
    with n_events / sum_value.

    The SQL twin is the generate_series membership join — identical
    window-id arithmetic on integer epochs, no float boundary hazard."""
    if window_sec % slide_sec:
        raise ValueError("window_sec must be a multiple of slide_sec")
    r = window_sec // slide_sec

    def partial(batch: pa.Table) -> pa.Table:
        arr = batch[ts_col]
        fac = _TS_UNIT_FACTOR[arr.type.unit]
        t = (arr.cast(pa.int64()).to_numpy(zero_copy_only=False)
             // (fac * slide_sec))  # slide-grid index of the event
        n = len(t)
        # windows w with w*S <= t' < w*S + W  ⇔  w in [t_idx - r + 1, t_idx]
        w = (np.repeat(t, r) - np.tile(np.arange(r, dtype=np.int64), n))
        keys = batch[key_col].take(pa.array(np.repeat(np.arange(n), r)))
        vals = batch[value_col].take(pa.array(np.repeat(np.arange(n), r)))
        tt = pa.table({key_col: keys, "window": pa.array(w * slide_sec),
                       "v": vals})
        g = tt.group_by([key_col, "window"]).aggregate(
            [("v", "sum"), ("v", "count")])
        return pa.table({
            key_col: g[key_col], "window": g["window"],
            "part_sum": g["v_sum"], "part_n": g["v_count"],
        })

    def combine(t: pa.Table) -> pa.Table:
        g = t.group_by([key_col, "window"]).aggregate(
            [("part_sum", "sum"), ("part_n", "sum")])
        return pa.table({
            key_col: g[key_col], "window_start": g["window"],
            "sum_value": g["part_sum_sum"],
            "n_events": g["part_n_sum"].cast(pa.int64()),
        })

    return bucket_shuffle(events_ds, key_col, combine,
                          prepare=partial, batch_format="pyarrow")


SAMPLE_MIX = 0x9E3779B97F4A7C15  # golden-ratio 64-bit mix (shared with SQL twin)


def deterministic_sample(ds, key_col: str, rate_ppm: int, seed: int = 1):
    """Reproducible hash-based subsample: keep rows where
    ``((key + seed) * SAMPLE_MIX mod 2^64) % 1e6 < rate_ppm``.

    Training-data staple with no reference analogue (SURVEY §2.6 notes the
    reference has no sampling): the sample is a pure per-row filter — no
    shuffle, no RNG state, stable under re-execution/resume and across
    cluster sizes, and the identical arithmetic is expressible in DuckDB
    HUGEINT so an oracle can hash-match the selected rows.
    """
    mix = np.uint64(SAMPLE_MIX)
    s = np.uint64(seed)
    ppm = np.uint64(rate_ppm)

    def f(t: pa.Table) -> pa.Table:
        k = t[key_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            h = (k + s) * mix  # wraps mod 2^64
        return t.filter(pa.array(h % np.uint64(1_000_000) < ppm))

    return ds.map_batches(f, batch_format="pyarrow")

def running_aggregate(events_ds, key_col: str, ts_col: str, order_col: str,
                      value_col: str):
    """Cumulative (running) window: for every event, the running count and
    running sum of ``value_col`` over the key's events ordered by
    (ts, order_col) — ``SUM(v) OVER (PARTITION BY key ORDER BY ts, id
    ROWS UNBOUNDED PRECEDING)``.

    Scale shape: ONE shuffle — keys hash into coarse buckets, each bucket
    does a vectorized sort + per-key C cumsum (pandas groupby cumsum), no
    per-row Python.  (ts, order_col) is a total order when ``order_col``
    is unique, so the result is deterministic under any shuffle order.
    A null key is one partition, as in SQL.
    Exactness: pass an INTEGER value column (e.g. cents) when the oracle
    must hash-match — integer running sums are accumulation-order-proof,
    float ones are only reproducible, not portable across engines.
    """
    def per_bucket(group: pd.DataFrame) -> pa.Table:
        df = group.sort_values([key_col, ts_col, order_col])
        g = df.groupby(key_col, sort=False, dropna=False)
        df = df.assign(
            running_n=g.cumcount().to_numpy() + 1,
            running_sum=g[value_col].cumsum().to_numpy(),
        ).drop(columns=[value_col])
        return pa.Table.from_pandas(df, preserve_index=False)

    return bucket_shuffle(
        events_ds, key_col, per_bucket,
        prepare=lambda t: t.select([key_col, ts_col, order_col, value_col]))


def pivot_counts(ds, row_col: str, col_col: str, col_values: list):
    """Pivot / wide conditional aggregation: one output row per ``row_col``
    value with a count column per entry of ``col_values`` plus ``n_total``
    (unlisted column values count toward the total only).

    Scale shape: per-batch arrow group_by partials (≤ rows×cols rows per
    batch), ONE coarse shuffle on the row key, per-bucket wide layout via
    a vectorized pivot.  Output is inherently small (distinct row keys),
    so the wide step never sees raw rows."""
    def partial(batch: pa.Table) -> pa.Table:
        return pa.table({row_col: batch[row_col], col_col: batch[col_col]}) \
            .group_by([row_col, col_col]).aggregate([([], "count_all")])

    def widen(group: pd.DataFrame) -> pa.Table:
        w = group.pivot_table(index=row_col, columns=col_col,
                              values="count_all", aggfunc="sum",
                              fill_value=0)
        out = pd.DataFrame({row_col: w.index})
        for v in col_values:
            c = w[v].to_numpy(dtype=np.int64) if v in w.columns \
                else np.zeros(len(w), dtype=np.int64)
            out[f"n_{v}"] = c
        total = w.sum(axis=1).to_numpy(dtype=np.int64)
        out["n_total"] = total
        return pa.Table.from_pandas(out, preserve_index=False)

    return bucket_shuffle(ds, row_col, widen, prepare=partial)


def grouped_lag(events_ds, key_col: str, ts_col: str, order_col: str,
                lag_cols: list[str], lead: bool = False,
                carry_cols: list[str] | None = None):
    """LAG / LEAD window: for every row, the PREVIOUS (or, with
    ``lead=True``, the NEXT) row's values per key in (ts, order_col)
    order — ``LAG/LEAD(col) OVER (PARTITION BY key ORDER BY ts, id)``.
    Emits ``prev_<col>`` / ``next_<col>`` (null on each key's boundary
    row) for every requested column plus ``gap_us`` (microseconds to the
    neighbor row, exact integer — no truncation semantics to disagree
    on; positive in both directions).

    Scale shape: identical to ``running_aggregate`` — ONE coarse-bucket
    shuffle, per-bucket vectorized sort + C groupby shift."""
    keep = {key_col, ts_col, order_col, *lag_cols, *(carry_cols or [])}
    shift_n = -1 if lead else 1
    prefix = "next_" if lead else "prev_"

    def prune(batch: pa.Table) -> pa.Table:
        return batch.select([c for c in batch.column_names if c in keep])

    def per_bucket(group: pd.DataFrame) -> pa.Table:
        df = group.sort_values([key_col, ts_col, order_col])
        g = df.groupby(key_col, sort=False, dropna=False)
        ts_i = df[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        nbr_ts = pd.Series(ts_i, index=df.index).groupby(
            df[key_col], sort=False, dropna=False).shift(shift_n)
        out = df.copy()
        for c in lag_cols:
            out[f"{prefix}{c}"] = g[c].shift(shift_n).convert_dtypes()
        gap = (ts_i - nbr_ts.to_numpy()) * shift_n
        out["gap_us"] = pd.array(gap, dtype="Int64")
        return pa.Table.from_pandas(out, preserve_index=False)

    return bucket_shuffle(events_ds, key_col, per_bucket, prepare=prune)


def scd2_intervals(events_ds, key_col: str, ts_col: str, order_col: str,
                   state_col: str):
    """SCD type-2 dimension build from an append-only event log: per
    key, collapse consecutive rows with the same ``state_col`` into one
    versioned row with a validity interval — the classic warehouse
    "current + history" dimension.  Emits one row per STATE CHANGE:
    ``(key, state, valid_from_us, valid_to_us, version)`` where
    ``valid_to_us`` is the next change's timestamp (null on each key's
    open current row) and ``version`` counts changes per key from 1.

    Scale shape: ONE coarse-bucket shuffle on the key (each key's full
    history lands in one bucket — the partitioning assumption), then a
    per-bucket vectorized sort + boundary diff; the output is
    change-rows-sized, usually far smaller than the log."""
    keep = [key_col, ts_col, order_col, state_col]
    empty = pa.table({key_col: pa.array([], type=pa.int64()),
                      state_col: pa.array([], type=pa.string()),
                      "valid_from_us": pa.array([], type=pa.int64()),
                      "valid_to_us": pa.array([], type=pa.int64()),
                      "version": pa.array([], type=pa.int64())})

    def per_bucket(group: pd.DataFrame) -> pa.Table:
        if group.empty:
            return empty
        df = group.sort_values([key_col, ts_col, order_col])
        k = df[key_col].to_numpy()
        st = df[state_col].to_numpy()
        ts_us = df[ts_col].to_numpy().astype(
            "datetime64[us]").astype(np.int64)
        new_key = np.ones(len(df), dtype=bool)
        new_key[1:] = k[1:] != k[:-1]
        change = new_key.copy()
        change[1:] |= st[1:] != st[:-1]
        ck, cs, vf = k[change], st[change], ts_us[change]
        cnk = new_key[change]                 # first change row per key
        same_next = np.zeros(len(ck), dtype=bool)
        same_next[:-1] = ~cnk[1:]             # next change row, same key
        vt = np.zeros(len(ck), dtype=np.int64)
        vt[:-1] = vf[1:]
        # version = 1-based change counter per key (rows are sorted)
        idx = np.arange(len(ck), dtype=np.int64)
        seg_start = np.where(cnk, idx, 0)
        np.maximum.accumulate(seg_start, out=seg_start)
        version = idx - seg_start + 1
        return pa.table({key_col: pa.array(ck),
                         state_col: pa.array(cs),
                         "valid_from_us": pa.array(vf),
                         "valid_to_us": pa.array(vt, mask=~same_next),
                         "version": pa.array(version)})

    return bucket_shuffle(events_ds, key_col, per_bucket,
                          prepare=lambda t: t.select(keep))


def unpivot(ds, id_cols: list, value_cols: list,
            var_name: str = "variable", value_name: str = "value"):
    """Wide→long UNPIVOT: each input row becomes len(value_cols) output
    rows ``(id_cols…, variable, value)``.  Pure per-batch Arrow concat —
    no shuffle, no Python row loop; value columns are cast to a common
    type by Arrow's concat_tables promotion.  The inverse of the pivot
    stage."""
    def per_batch(t: pa.Table) -> pa.Table:
        parts = []
        for c in value_cols:
            part = t.select(id_cols) \
                .append_column(var_name,
                               pa.array([c] * len(t), type=pa.string())) \
                .append_column(value_name, t[c])
            parts.append(part)
        return pa.concat_tables(parts, promote_options="permissive")

    return ds.map_batches(per_batch, batch_format="pyarrow")


def grouped_ranks(events_ds, key_col: str, order_col: str, id_col: str):
    """Rank windows — per key in ``order_col`` order: ROW_NUMBER (id
    tie-break, so deterministic), RANK (min, gaps), DENSE_RANK, and
    PERCENT_RANK ((rank-1)/(n-1); 0 for singleton keys).  PERCENT_RANK is
    a single exact-int division, so the double is bit-identical across
    engines — no rounding step needed.

    Scale shape: identical to ``running_aggregate`` — ONE coarse-bucket
    shuffle, per-bucket vectorized sort + C groupby rank kernels.  A null
    key is one partition, as in SQL."""
    def per_bucket(group: pd.DataFrame) -> pa.Table:
        df = group.sort_values([key_col, order_col, id_col])
        g = df.groupby(key_col, sort=False, dropna=False)
        rank = g[order_col].rank(method="min").to_numpy(dtype=np.int64)
        rmax = g[order_col].rank(method="max").to_numpy(dtype=np.int64)
        dense = g[order_col].rank(method="dense").to_numpy(dtype=np.int64)
        n = g[order_col].transform("size").to_numpy(dtype=np.int64)
        pct = np.where(n > 1, (rank - 1) / np.maximum(n - 1, 1), 0.0)
        # CUME_DIST = rows-with-value<=current / n — one exact-int
        # division, bit-identical doubles like PERCENT_RANK
        cume = rmax / n
        out = df.assign(
            row_number=g.cumcount().to_numpy() + 1,
            rank=rank, dense_rank=dense, pct_rank=pct, cume_dist=cume)
        return pa.Table.from_pandas(out, preserve_index=False)

    return bucket_shuffle(
        events_ds, key_col, per_bucket,
        prepare=lambda t: t.select([key_col, order_col, id_col]))


def moving_aggregate(events_ds, key_col: str, ts_col: str, order_col: str,
                     value_col: str, window_rows: int):
    """Bounded row window — ``SUM/COUNT(v) OVER (PARTITION BY key ORDER
    BY ts, id ROWS BETWEEN window_rows PRECEDING AND CURRENT ROW)``.
    Pass an integer value column for accumulation-order-exact sums.

    Scale shape: ONE coarse-bucket shuffle; per bucket a vectorized sort
    + per-key C rolling sum (pandas groupby.rolling)."""
    def per_bucket(group: pd.DataFrame) -> pa.Table:
        df = group.sort_values([key_col, ts_col, order_col])
        r = df.groupby(key_col, sort=False, dropna=False)[value_col] \
            .rolling(window=window_rows + 1, min_periods=1)
        out = df.drop(columns=[value_col]).assign(
            mov_sum=r.sum().to_numpy().astype(np.int64),
            mov_n=r.count().to_numpy().astype(np.int64))
        return pa.Table.from_pandas(out, preserve_index=False)

    return bucket_shuffle(
        events_ds, key_col, per_bucket,
        prepare=lambda t: t.select([key_col, ts_col, order_col, value_col]))


def ewma_bounded(events_ds, key_col: str, ts_col: str, order_col: str,
                 value_col: str, window_rows: int = 24):
    """Bounded-history normalized exponential moving average per key —
    ``SUM(v_i * 0.5^(n-i)) / SUM(0.5^(n-i))`` over the last
    ``window_rows`` rows ordered by (ts, order) within the key.  The
    decay 1/2 and the bounded window keep EVERY intermediate a dyadic
    rational that fits float64's 53-bit significand for integer inputs
    < 2^(53-window_rows), so the result is bit-exact at ANY partitioning
    or summation order — an unrolled SQL twin matches with no rounding
    pin.  Scale shape mirrors ``moving_aggregate``: ONE coarse-bucket
    shuffle, per bucket a vectorized sort + ``window_rows`` shifted-add
    vector ops (no per-row Python).

    Returns (order_col, key_col, 'ewma') with ewma on the RAW value
    scale (caller rescales, e.g. /100 for cents)."""
    def per_bucket(group: pd.DataFrame) -> pa.Table:
        df = group.sort_values([key_col, ts_col, order_col])
        v = df[value_col].to_numpy(dtype=np.float64)
        key = df[key_col].to_numpy()
        n = len(v)
        start = np.empty(n, dtype=bool)
        if n:
            start[0] = True
            start[1:] = key[1:] != key[:-1]
        idx = np.arange(n)
        seg0 = np.maximum.accumulate(np.where(start, idx, 0))
        j = idx - seg0                      # 0-based rank inside the key
        num = np.zeros(n)
        for k in range(window_rows):
            if k >= n:
                break
            shifted = np.empty(n)
            shifted[:k] = 0.0
            shifted[k:] = v[:n - k]
            num += np.where(j >= k, shifted * (2.0 ** -k), 0.0)
        m = np.minimum(j + 1, window_rows).astype(np.float64)
        den = 2.0 - np.ldexp(1.0, -(m - 1).astype(np.int64))
        out = df[[order_col, key_col]].copy()
        out["ewma"] = num / den
        # strip the pandas schema metadata — its dict payload defeats
        # Ray's schema-dedup hash and spams a warning per block
        return pa.Table.from_pandas(out, preserve_index=False) \
            .replace_schema_metadata(None)

    return bucket_shuffle(
        events_ds, key_col, per_bucket,
        prepare=lambda t: t.select([key_col, ts_col, order_col, value_col]))


def stratified_sample(ds, key_col: str, strata_col: str,
                      rates_ppm: dict, default_ppm: int = 0, seed: int = 1):
    """Per-stratum deterministic hash sample: each row keeps with its
    stratum's rate (parts-per-million), using the same golden-ratio-mix
    key hash as ``deterministic_sample`` — a pure per-row filter with no
    shuffle or RNG state, stable across parallelism and resume, and
    SQL-expressible (CASE over the stratum + identical HUGEINT
    arithmetic).  The standard shape for rebalancing a corpus (e.g.
    downsample English, keep all low-resource languages)."""
    mix = np.uint64(SAMPLE_MIX)
    s = np.uint64(seed)

    def f(t: pa.Table) -> pa.Table:
        k = t[key_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            h = (k + s) * mix  # wraps mod 2^64
        strata = t[strata_col].to_pandas()
        rates = strata.map(rates_ppm).fillna(default_ppm) \
            .to_numpy(dtype=np.uint64)
        return t.filter(pa.array(h % np.uint64(1_000_000) < rates))

    return ds.map_batches(f, batch_format="pyarrow")


def grouping_sets_aggregate(ds, key_cols: list[str], value_col: str,
                            sets: list[tuple], round_to: int = 2):
    """GROUPING SETS multi-granularity aggregate in ONE pass: per-batch
    partials at the finest (k₁…kₙ) granularity, one tiny groupby, then
    every requested grouping set derives from the finest partials
    arrow-side — the raw rows are read once and never re-shuffled per
    level.  Emits ``n`` and ``sum_value`` (ROUND'ed: the coarser sums
    re-accumulate float partials, so the usual money-grain rounding
    applies) with NULL key columns marking rolled-up positions, exactly
    like SQL.  ``sets`` must include the full ``tuple(key_cols)`` set or
    a coarser subset of it; each entry is a tuple of column names."""
    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select([*key_cols, value_col])
        g = t.group_by(key_cols).aggregate([(value_col, "sum"),
                                            ([], "count_all")])
        return pa.table({**{k: g[k] for k in key_cols},
                         "psum": g[f"{value_col}_sum"],
                         "pn": g["count_all"].cast(pa.int64())})

    finest = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(key_cols).sum(["psum", "pn"])

    def levels(t: pa.Table) -> pa.Table:
        t = pa.table({**{k: t[k] for k in key_cols},
                      "psum": t["sum(psum)"], "pn": t["sum(pn)"]})
        outs = []
        for keep in sets:
            keep = list(keep)
            if keep == key_cols:
                outs.append(t)
                continue
            g = (t.group_by(keep).aggregate([("psum", "sum"),
                                             ("pn", "sum")])
                 if keep else
                 pa.table({"psum_sum": pa.array(
                     [pc.sum(t["psum"]).as_py()]),
                     "pn_sum": pa.array([pc.sum(t["pn"]).as_py()],
                                        type=pa.int64())}))
            cols = {}
            for k in key_cols:
                cols[k] = g[k] if k in keep else \
                    pa.nulls(g.num_rows, type=t.schema.field(k).type)
            cols["psum"] = g["psum_sum"]
            cols["pn"] = g["pn_sum"]
            outs.append(pa.table(cols))
        u = pa.concat_tables(outs)
        return pa.table({**{k: u[k] for k in key_cols},
                         "n": u["pn"],
                         "sum_value": pc.round(u["psum"], round_to)})

    return levels(ds_to_table(finest))


def rollup_aggregate(ds, key_cols: list[str], value_col: str,
                     round_to: int = 2):
    """SQL ``GROUP BY ROLLUP``: the prefix grouping sets
    (k₁…kₙ), (k₁…kₙ₋₁), …, () — see ``grouping_sets_aggregate``."""
    sets = [tuple(key_cols[:i]) for i in range(len(key_cols), -1, -1)]
    return grouping_sets_aggregate(ds, key_cols, value_col, sets, round_to)


def cube_aggregate(ds, key_cols: list[str], value_col: str,
                   round_to: int = 2):
    """SQL ``GROUP BY CUBE``: every subset of ``key_cols`` (order-
    preserving) — see ``grouping_sets_aggregate``."""
    from itertools import combinations
    sets = [tuple(c) for r in range(len(key_cols), -1, -1)
            for c in combinations(key_cols, r)]
    return grouping_sets_aggregate(ds, key_cols, value_col, sets, round_to)


def windowed_distinct(events_ds, key_col: str, ts_col: str,
                      window_sec: int):
    """Tumbling-window COUNT(DISTINCT key): per batch the (window, key)
    pairs deduplicate arrow-side BEFORE the shuffle (the exchange carries
    distinct pairs, not events), then one groupby counts per window."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        arr = batch[ts_col]
        fac = _TS_UNIT_FACTOR[arr.type.unit]
        w = (arr.cast(pa.int64()).to_numpy(zero_copy_only=False)
             // (fac * window_sec)) * window_sec
        t = pa.table({"window_start": pa.array(w),
                      key_col: batch[key_col]})
        return t.group_by(["window_start", key_col]).aggregate([])

    pairs = events_ds.map_batches(partial, batch_format="pyarrow")
    # distinct pairs shuffle once; count per window
    uniq = pairs.groupby(["window_start", key_col]).count()

    def count_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("window_start").aggregate([([], "count_all")])
        return pa.table({"window_start": g["window_start"],
                         "pn": g["count_all"].cast(pa.int64())})

    counts = uniq.map_batches(count_partial, batch_format="pyarrow") \
        .groupby("window_start").sum("pn")
    return counts.map_batches(
        lambda t: pa.table({"window_start": t["window_start"],
                            "n_distinct": t["sum(pn)"].cast(pa.int64())}),
        batch_format="pyarrow")


def grouped_ntile(ds, key_col: str, order_col: str, tiebreak_col: str,
                  n_tiles: int):
    """NTILE window: rows of each key, ordered by (order_col, tiebreak),
    split into ``n_tiles`` near-equal tiles, larger tiles first —
    ``NTILE(k) OVER (PARTITION BY key ORDER BY v, id)`` exactly: with
    base = n//k and rem = n%k, the first ``rem`` tiles hold base+1 rows
    and the rest hold base (the SQL front-loaded-remainder rule — NOT
    the interleaving floor(rank·k/n) quantile formula).  Same
    one-coarse-bucket-shuffle shape as the other window operators."""
    def per_bucket(group: pd.DataFrame) -> pa.Table:
        df = group.sort_values([key_col, order_col, tiebreak_col])
        g = df.groupby(key_col, sort=False, dropna=False)
        rank = g.cumcount().to_numpy()
        n = g[order_col].transform("size").to_numpy()
        base = n // n_tiles
        rem = n % n_tiles
        cutoff = rem * (base + 1)
        tile = np.where(
            rank < cutoff,
            rank // np.maximum(base + 1, 1),
            rem + (rank - cutoff) // np.maximum(base, 1)) + 1
        df = df.assign(tile=tile.astype(np.int64))
        return pa.Table.from_pandas(df, preserve_index=False)

    return bucket_shuffle(
        ds, key_col, per_bucket,
        prepare=lambda t: t.select([key_col, order_col, tiebreak_col]))


def salted_join(left_ds, right_ds, on: str, hot_keys, salt: int = 8,
                how: str = "inner"):
    """Skew-safe large×large join: rows of HOT keys (a known/detected
    list — e.g. from ``top_k_words``-style heavy-hitter counts) spread
    across ``salt`` sub-buckets on the left, while the right side's hot
    rows REPLICATE into every sub-bucket, so one scorching key fans out
    over ``salt`` tasks instead of melting a single reducer.  Non-hot
    keys take the plain one-sub-bucket path; results are identical to
    ``bucketed_hash_join`` (asserted in tests), which shares its
    join kernel (on the key and the sub-bucket) and key-type
    unification.

    The left row's sub-bucket is its position hash — any assignment
    works, the replicated right side meets it everywhere; output is
    independent of the assignment.  A non-hot key's bucket is its hash
    in ``[0, NUM_BUCKETS * salt)``; a hot key's ``salt`` sub-buckets sit
    ``NUM_BUCKETS`` apart, ``base + j * NUM_BUCKETS``, so the equal
    bucket ranges of ``sort_buckets`` part them over min(salt, R)
    reducers (adjacent sub-buckets would share one reducer whenever
    R <= NUM_BUCKETS)."""
    if how not in ("inner", "left"):
        # replicated hot right rows would duplicate unmatched right
        # output under right/full outer — route those to the plain join
        raise ValueError(
            f"salted_join supports how='inner'|'left', got {how!r}; "
            "use bucketed_hash_join for right/full outer")
    hot = pa.array(sorted(set(hot_keys)))
    nb = NUM_BUCKETS

    def hot_bucket(batch: pa.Table):
        # h % (nb * salt) ≡ h % nb: its remainder is the key's base bucket
        b = stable_bucket(batch[on], nb * salt).astype(np.int64)
        ishot = pc.is_in(batch[on], value_set=hot).to_numpy(
            zero_copy_only=False)
        return b, ishot

    def tag_left(batch: pa.Table) -> pa.Table:
        b, ishot = hot_bucket(batch)
        # per-row deterministic spread for hot keys (row content hash)
        spread = pd.util.hash_array(
            np.arange(batch.num_rows, dtype=np.int64)) % salt
        b = np.where(ishot, b % nb + spread.astype(np.int64) * nb, b)
        return batch.append_column("_bucket", pa.array(b.astype(np.int32)))

    def tag_right(batch: pa.Table) -> pa.Table:
        b, ishot = hot_bucket(batch)
        reps = np.where(ishot, salt, 1).astype(np.int64)
        idx = np.repeat(np.arange(batch.num_rows), reps)
        b = np.where(ishot[idx], b[idx] % nb + _ragged_arange(reps) * nb,
                     b[idx])
        return batch.take(pa.array(idx)).append_column(
            "_bucket", pa.array(b.astype(np.int32)))

    return _bucket_join(left_ds, right_ds, on, how, tag_left, tag_right,
                        nb * salt)


def funnel_conversion(events_ds, user_col: str, ts_col: str,
                      type_col: str, first_step: str, second_step: str,
                      within_sec: int):
    """Two-step funnel analysis: per user, the first ``first_step``
    event and whether a ``second_step`` event follows within
    ``within_sec`` seconds (strictly after, inclusive bound) — the
    conversion primitive behind activation/checkout dashboards.

    Scale shape: rows filter to the two step types BEFORE the exchange,
    then ONE coarse user-bucket shuffle; per bucket a vectorized
    pandas pass takes each user's min first-step ts and probes the
    second-step timestamps — no per-user Python loop.  Emits one row
    per user that performed the first step: (user, first_ts,
    converted)."""
    def steps(batch: pa.Table) -> pa.Table:
        m = pc.is_in(batch[type_col],
                     value_set=pa.array([first_step, second_step]))
        return batch.select([user_col, ts_col, type_col]).filter(m)

    def per_bucket(group: pd.DataFrame) -> pa.Table:
        first = group[group[type_col] == first_step] \
            .groupby(user_col)[ts_col].min()
        if first.empty:
            return pa.table({user_col: pa.array([], type=pa.int64()),
                             "first_ts": pa.array(
                                 [], type=pa.timestamp("us")),
                             "converted": pa.array([], type=pa.int64())})
        second = group[group[type_col] == second_step]
        f_of_s = first.reindex(second[user_col])
        keep = f_of_s.notna().to_numpy()  # drop steps with no first event
        second = second[keep]
        s_user = second[user_col].to_numpy()
        s_ts = second[ts_col].to_numpy().astype("datetime64[us]") \
            .astype(np.int64)
        f_ts = first.to_numpy().astype("datetime64[us]").astype(np.int64)
        fs = f_of_s[keep].to_numpy().astype("datetime64[us]") \
            .astype(np.int64)
        hit = (s_ts > fs) & (s_ts <= fs + within_sec * 1_000_000)
        conv = np.isin(first.index.to_numpy(), s_user[hit]) \
            .astype(np.int64)
        return pa.table({user_col: pa.array(first.index.to_numpy()),
                         "first_ts": pa.array(
                             f_ts.view("datetime64[us]")),
                         "converted": pa.array(conv)})

    return bucket_shuffle(events_ds, user_col, per_bucket, prepare=steps)


def cohort_retention(events_ds, user_col: str, ts_col: str):
    """Weekly cohort retention: users are cohorted by the epoch-week of
    their FIRST event; for every (cohort_week, week_offset) report the
    distinct active users — the standard retention triangle.

    Scale shape: per-user first-week via per-batch Min partials → one
    tiny per-user groupby; the (user, cohort) map attaches back with the
    size-guarded broadcast (bucketed co-shuffle join past the budget);
    (cohort, offset, user) triples dedupe inside each batch before the
    single counting groupby.  Weeks are exact integer epoch//604800 —
    no timezone/truncation semantics to disagree on."""
    import ray
    from ray.data.aggregate import Min, Sum

    def week(batch: pa.Table) -> pa.Table:
        w = batch[ts_col].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // (604800 * 1_000_000)
        return pa.table({user_col: batch[user_col], "week": pa.array(w)})

    weeks = events_ds.map_batches(week, batch_format="pyarrow")

    def min_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(user_col).aggregate([("week", "min")])
        return pa.table({user_col: g[user_col],
                         "cw": g["week_min"].cast(pa.int64())})

    cohorts = weeks.map_batches(min_partial, batch_format="pyarrow") \
        .groupby(user_col).aggregate(Min("cw", alias_name="cohort_week")) \
        .materialize()

    if cohorts.count() * 32 <= util.BROADCAST_LIMIT_BYTES:
        tbl = ds_to_table(cohorts)  # empty-safe (0-row corner)
        ref = ray.put(tbl)

        def attach(batch: pa.Table) -> pa.Table:
            c = worker_cached(("cohort_attach", ref), lambda: ray.get(ref)
                              .to_pandas().set_index(user_col)["cohort_week"])
            cw = c.reindex(batch[user_col].to_pandas()).to_numpy() \
                .astype(np.int64)
            return batch.append_column("cohort_week", pa.array(cw))

        joined = weeks.map_batches(attach, batch_format="pyarrow")
    else:
        joined = bucketed_hash_join(weeks, cohorts, on=user_col, how="left")

    # a user's rows may SPAN batches (unlike whole-doc rows), so per-batch
    # distinct is only a partial — dedupe globally with one triple-keyed
    # groupby before counting (per-batch distinct still shrinks the
    # exchange first)
    def triple_partial(b: pa.Table) -> pa.Table:
        t = pa.table({
            "cohort_week": b["cohort_week"].cast(pa.int64()),
            "week_offset": pc.subtract(b["week"].cast(pa.int64()),
                                       b["cohort_week"].cast(pa.int64())),
            user_col: b[user_col]})
        return t.group_by(["cohort_week", "week_offset", user_col]) \
            .aggregate([])

    from ray.data.aggregate import Count
    dist = joined.map_batches(triple_partial, batch_format="pyarrow") \
        .groupby(["cohort_week", "week_offset", user_col]) \
        .aggregate(Count(alias_name="_x"))

    def count_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["cohort_week", "week_offset"]) \
            .aggregate([(user_col, "count")])
        return pa.table({"cohort_week": g["cohort_week"],
                         "week_offset": g["week_offset"],
                         "pn": g[f"{user_col}_count"].cast(pa.int64())})

    return dist.map_batches(count_partial, batch_format="pyarrow") \
        .groupby(["cohort_week", "week_offset"]) \
        .aggregate(Sum("pn", alias_name="n_users"))


def grouped_zscore(ds, key_col: str, val_col: str, id_col: str,
                   round_to: int = 4):
    """Per-group feature standardization: z = (x − mean_g) / stddev_g
    (sample stddev, SQL's STDDEV_SAMP; NULL when the group has < 2 rows
    or zero variance — both matching the SQL window twin).

    Scale shape: per-batch sufficient-statistic partials (n, Σx, Σx²)
    collapse inside each batch, one tiny per-key groupby merges them,
    and the per-key stats attach back via a size-guarded ``ray.put``
    broadcast (group keys are usually dwarfed by rows) with a bucketed
    co-shuffle join past the byte budget — rows are touched exactly
    twice, no row-scaled driver state."""
    import ray
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        x = batch[val_col].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        t = pa.table({key_col: batch[key_col], "_x": pa.array(x),
                      "_xx": pa.array(x * x)})
        g = t.group_by(key_col).aggregate(
            [("_x", "sum"), ("_xx", "sum"), ("_x", "count")])
        return pa.table({key_col: g[key_col], "s": g["_x_sum"],
                         "ss": g["_xx_sum"],
                         "n": g["_x_count"].cast(pa.int64())})

    stats = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(key_col).aggregate(Sum("s", alias_name="s"),
                                    Sum("ss", alias_name="ss"),
                                    Sum("n", alias_name="n")) \
        .materialize()

    def finish(batch: pa.Table, st: pd.DataFrame) -> pa.Table:
        keys = batch[key_col].to_pandas()
        m = st.reindex(keys)
        n = m["n"].to_numpy()
        mean = m["s"].to_numpy() / n
        var = (m["ss"].to_numpy() - n * mean * mean) / np.maximum(n - 1, 1)
        x = batch[val_col].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.round((x - mean) / np.sqrt(var), round_to)
        z[(n < 2) | (var <= 0)] = np.nan
        return pa.table({id_col: batch[id_col], key_col: batch[key_col],
                         val_col: batch[val_col],
                         "zscore": pa.array(z)})

    if stats.count() * 64 <= util.BROADCAST_LIMIT_BYTES:
        st_tbl = pa.concat_tables(
            [b for b in stats.iter_batches(batch_format="pyarrow")])
        st_ref = ray.put(st_tbl)

        def flag(batch: pa.Table) -> pa.Table:
            st = worker_cached(("zscore_stats", st_ref), lambda: ray.get(
                st_ref).to_pandas().set_index(key_col))
            return finish(batch, st)

        return ds.map_batches(flag, batch_format="pyarrow")

    joined = bucketed_hash_join(ds, stats, on=key_col, how="left")

    def from_joined(batch: pa.Table) -> pa.Table:
        st = pa.table({key_col: batch[key_col], "s": batch["s"],
                       "ss": batch["ss"], "n": batch["n"]}) \
            .to_pandas().drop_duplicates(key_col).set_index(key_col)
        return finish(batch, st)

    return joined.map_batches(from_joined, batch_format="pyarrow")


def global_prefix_sum(ds, order_col: str, value_col: str,
                      out_col: str = "cum"):
    """Globally-ordered running total — SUM(value) OVER (ORDER BY
    order_col ROWS UNBOUNDED PRECEDING) — without a single-node sort.

    Two-pass distributed prefix sum:
      1. rows map to a RANGE bucket (order-preserving: bucket boundaries
         split the key domain, so bucket i holds strictly smaller keys
         than bucket i+1); per-batch partial sums → one tiny
         groupby(bucket) gives each bucket's total;
      2. the driver exclusive-scans the ≤ NUM_BUCKETS totals (bounded,
         independent of row count) and broadcasts the offsets; one
         groupby(bucket).map_groups sorts WITHIN each bucket and adds
         offset + intra-bucket cumsum.
    One narrow shuffle on the bucket key; nothing row-scaled on the
    driver.  Requires a unique integer ``order_col`` (ties would make
    the running total order-ambiguous)."""
    return _global_prefix_scan(ds, order_col, value_col, out_col,
                               kind="sum")


def global_prefix_max(ds, order_col: str, value_col: str,
                      out_col: str = "cummax"):
    """Globally-ordered running MAX — MAX(value) OVER (ORDER BY
    order_col ROWS UNBOUNDED PRECEDING) — the streaming WATERMARK
    primitive (the high-water event time as of each arrival), without a
    single-node sort.  Same two-pass range-bucket shape as
    ``global_prefix_sum`` with (max, ∨, int64-min) in place of
    (sum, +, 0).  Requires a unique integer ``order_col``; values are
    int64."""
    return _global_prefix_scan(ds, order_col, value_col, out_col,
                               kind="max")


def _global_prefix_scan(ds, order_col: str, value_col: str, out_col: str,
                        kind: str):
    """Shared two-pass range-bucket prefix scan over any associative op
    with an identity — rows map to one of ``NUM_BUCKETS`` order-preserving
    RANGE buckets; one pass reduces each bucket; the driver exclusive-scans
    the ≤ NUM_BUCKETS reductions and broadcasts each bucket's incoming
    prefix; one bucket shuffle sorts within buckets and combines the
    intra-bucket scan with its prefix."""
    import ray
    from ray.data.aggregate import Max, Min, Sum
    agg_name, agg_cls, np_acc, identity, merge = {
        "sum": ("sum", Sum, np.cumsum, 0, np.add),
        "max": ("max", Max, np.maximum.accumulate,
                np.iinfo(np.int64).min, np.maximum),
    }[kind]

    lohi = ds.select_columns([order_col]) \
        .aggregate(Min(order_col, alias_name="lo"),
                   Max(order_col, alias_name="hi"))
    lo, hi = lohi["lo"], lohi["hi"]
    nb = NUM_BUCKETS
    span = max(1, (int(hi) - int(lo) + nb) // nb)

    def add_bucket(batch: pa.Table) -> pa.Table:
        k = batch[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = (k - int(lo)) // span
        return batch.append_column("_pb", pa.array(b))

    bucketed = ds.map_batches(add_bucket, batch_format="pyarrow")

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.select(["_pb", value_col]).group_by("_pb") \
            .aggregate([(value_col, agg_name)])
        return pa.table({"_pb": g["_pb"],
                         "ps": g[f"{value_col}_{agg_name}"]
                         .cast(pa.int64())})

    totals = ds_to_table(
        bucketed.map_batches(partial, batch_format="pyarrow")
        .groupby("_pb").aggregate(agg_cls("ps", alias_name="s"))
    ).to_pandas().sort_values("_pb")
    prefix_in = np.concatenate(
        [[identity], np_acc(totals["s"].to_numpy())[:-1]]) \
        .astype(np.int64)
    offsets = dict(zip(totals["_pb"].astype(np.int64), prefix_in))
    off_ref = ray.put(offsets)

    def scan(group: pd.DataFrame) -> pa.Table:
        off = ray.get(off_ref)
        g = group.sort_values(order_col)
        cum = merge(np_acc(g[value_col].to_numpy().astype(np.int64)),
                    off[int(g["_pb"].iloc[0])])
        out = g.drop(columns=["_pb"]).assign(**{out_col: cum})
        return pa.Table.from_pandas(out, preserve_index=False)

    return bucketed.groupby("_pb").map_groups(scan, batch_format="pandas")


def length_bucket_batches(ds, id_col: str, len_col: str,
                          batch_size: int, num_ranges: int = 64):
    """Length-bucketed training-batch assignment: rows group into
    power-of-two length buckets (lb = floor(log2(len)), exact via
    frexp — no float-boundary risk) and each bucket is numbered into
    batches of ``batch_size`` in global ``id_col`` order —
    ``(ROW_NUMBER() OVER (PARTITION BY lb ORDER BY id) - 1) //
    batch_size``.  The standard packing step before padded-batch LM
    training (similar-length docs batch together to minimize padding).

    Scale shape: the global_prefix_sum pattern generalized per bucket —
    rows tag with (lb, id-RANGE bucket); ONE pass counts rows per
    (lb, range); the driver exclusive-scans the ≤ buckets×ranges counts
    and broadcasts offsets; ONE (lb, range)-key shuffle assigns
    offset + intra-group rank.  No single-node sort, nothing row-scaled
    on the driver, and the range key keeps per-group size ~1/ranges of
    a length bucket (no whole-bucket groups)."""
    import ray
    from ray.data.aggregate import Max, Min, Sum

    lohi = ds.select_columns([id_col]) \
        .aggregate(Min(id_col, alias_name="lo"),
                   Max(id_col, alias_name="hi"))
    lo, hi = int(lohi["lo"]), int(lohi["hi"])
    span = max(1, (hi - lo + num_ranges) // num_ranges)

    def tag(batch: pa.Table) -> pa.Table:
        n = batch[len_col].to_numpy(zero_copy_only=False).astype(np.int64)
        lb = (np.frexp(np.maximum(n, 1).astype(np.float64))[1] - 1) \
            .astype(np.int64)
        k = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        t = batch.select([id_col, len_col])
        t = t.append_column("_lb", pa.array(lb))
        return t.append_column("_rb", pa.array((k - lo) // span))

    tagged = ds.map_batches(tag, batch_format="pyarrow")

    def count_partial(batch: pa.Table) -> pa.Table:
        g = batch.select(["_lb", "_rb"]).group_by(["_lb", "_rb"]) \
            .aggregate([([], "count_all")])
        return pa.table({"_lb": g["_lb"], "_rb": g["_rb"],
                         "pn": g["count_all"].cast(pa.int64())})

    counts = ds_to_table(
        tagged.map_batches(count_partial, batch_format="pyarrow")
        .groupby(["_lb", "_rb"]).aggregate(Sum("pn", alias_name="n"))) \
        .to_pandas().sort_values(["_lb", "_rb"])
    counts["off"] = counts.groupby("_lb")["n"].cumsum() - counts["n"]
    offsets = {(int(lb), int(rb)): int(off) for lb, rb, off in
               zip(counts["_lb"], counts["_rb"], counts["off"])}
    off_ref = ray.put(offsets)

    def assign(group: pd.DataFrame) -> pa.Table:
        off = ray.get(off_ref)
        g = group.sort_values(id_col)
        base = off[(int(g["_lb"].iloc[0]), int(g["_rb"].iloc[0]))]
        rank = base + np.arange(len(g), dtype=np.int64)
        out = g.drop(columns=["_rb"]).rename(columns={"_lb": "len_bucket"})
        out["batch_idx"] = rank // batch_size
        return pa.Table.from_pandas(out, preserve_index=False)

    return tagged.groupby(["_lb", "_rb"]).map_groups(
        assign, batch_format="pandas")


def interval_lookup_join(ds, val_col: str, ranges: pa.Table,
                         lo_col: str = "lo", hi_col: str = "hi",
                         how: str = "inner"):
    """Interval-containment lookup: attach the (non-overlapping) range
    row whose [lo, hi) contains ``val`` — the IP-range / price-band /
    bucketing-table join.  The ranges table is dimension-sized: it ships
    once in the task closure and every batch resolves with ONE
    np.searchsorted — no shuffle, no per-row Python.  ``how='left'``
    keeps out-of-band rows with null attributes."""
    rp = ranges.to_pandas().sort_values(lo_col).reset_index(drop=True)
    lows = rp[lo_col].to_numpy(dtype=np.float64)
    highs = rp[hi_col].to_numpy(dtype=np.float64)
    if (lows[1:] < highs[:-1]).any():
        raise ValueError("ranges must be non-overlapping")
    attrs = [c for c in rp.columns if c not in (lo_col, hi_col)]

    def lookup(batch: pa.Table) -> pa.Table:
        v = batch[val_col].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        idx = np.searchsorted(lows, v, side="right") - 1
        ok = (idx >= 0) & (v < highs[np.maximum(idx, 0)])
        if how == "inner":
            batch = batch.filter(pa.array(ok))
            idx = idx[ok]
            for c in attrs:
                batch = batch.append_column(
                    c, pa.array(rp[c].to_numpy()[idx]))
            return batch
        out = batch
        for c in attrs:
            vals = pd.Series(rp[c].to_numpy()[np.maximum(idx, 0)])
            vals[~ok] = None
            out = out.append_column(c, pa.Array.from_pandas(vals))
        return out

    return ds.map_batches(lookup, batch_format="pyarrow")


def cooccurrence_pairs(ds, key_col: str, val_col: str,
                       max_vals_per_key: int | None = 4096):
    """Market-basket co-occurrence: for every unordered pair of distinct
    ``val`` values appearing under the same key, the number of keys
    containing both (a < b).  Per-batch DISTINCT (key, val) partials →
    one key-bucket shuffle; per bucket the pair explosion is vectorized
    (sorted repeat/ragged-arange index arithmetic, no per-key Python
    pair loop) → per-block pair-count partials → a second
    ``bucket_shuffle`` keyed on ``a`` (every partial of a pair shares
    its ``a``, so a pair is whole in one block) whose kernel sums them.
    Output is |V|²-bounded, not corpus-scaled.

    The per-key explosion is k(k−1)/2: a single pathological key with
    10⁵ distinct values would emit 5·10⁹ pairs, so keys are CAPPED at
    ``max_vals_per_key`` distinct values (deterministic: the
    lexicographically-first N survive; pass None to disable — only when
    the value domain is known-bounded, as with event types)."""
    def distinct_partial(batch: pa.Table) -> pa.Table:
        return batch.select([key_col, val_col]) \
            .group_by([key_col, val_col]).aggregate([])

    def explode_pairs(group: pd.DataFrame) -> pa.Table:
        df = group.drop_duplicates([key_col, val_col]) \
            .sort_values([key_col, val_col])
        if max_vals_per_key is not None:
            df = df.groupby(key_col, sort=False).head(max_vals_per_key)
        k = df.groupby(key_col, sort=False).size().to_numpy()
        vals = df[val_col].to_numpy()
        off = np.zeros(len(k) + 1, dtype=np.int64)
        np.cumsum(k, out=off[1:])
        n_pairs = k * (k - 1) // 2
        key_rep = np.repeat(np.arange(len(k)), n_pairs)
        p = _pair_index(n_pairs)
        # p enumerates (i, j) with i < j inside each key's sorted values
        a = vals[off[key_rep] + p[0]]
        b = vals[off[key_rep] + p[1]]
        g = pd.DataFrame({"a": a, "b": b}).groupby(["a", "b"]) \
            .size().rename("pn").reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    def merge_pairs(df: pd.DataFrame) -> pa.Table:
        g = df.groupby(["a", "b"], sort=False)["pn"].sum() \
            .rename("n_keys").reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    pairs = bucket_shuffle(ds, key_col, explode_pairs,
                           prepare=distinct_partial)
    return bucket_shuffle(pairs, "a", merge_pairs)


def _pair_index(n_pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each group with c = n_pairs[g] = k(k-1)/2 pairs, the (i, j)
    index arrays (i < j) of all pairs over its k items, concatenated —
    vectorized triangular unranking."""
    local = _ragged_arange(n_pairs)
    # unrank t -> (i, j) in the upper triangle of a k×k grid:
    # i = floor(( -1 + sqrt(1+8t) ) / 2) counts over j-major order
    # (pairs ordered (0,1),(0,2),(1,2),(0,3)... = by j then i)
    j = np.floor((1.0 + np.sqrt(1.0 + 8.0 * local)) / 2.0) \
        .astype(np.int64)
    i = local - j * (j - 1) // 2
    return i, j


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    idx = np.arange(total, dtype=np.int64)
    resets = np.repeat(np.cumsum(counts) - counts, counts)
    return idx - resets


def profile_columns(ds, columns: list[str]):
    """ANALYZE-style numeric column profiling: one streaming pass emits
    per-column (n, n_null, min, max) — per-batch partials are
    columns-sized rows, one tiny groupby(column) merge.  The planner /
    data-quality primitive; exact, so it hash-matches a UNION ALL of
    per-column SQL aggregates."""
    from ray.data.aggregate import Max, Min, Sum

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        names, ns, nns, mns, mxs = [], [], [], [], []
        for c in columns:
            col = batch[c]
            nn = pc.count(col, mode="only_null").as_py()
            names.append(c)
            ns.append(len(col) - nn)
            nns.append(nn)
            cd = pc.cast(col, pa.float64())
            mns.append(pc.min(cd).as_py())
            mxs.append(pc.max(cd).as_py())
        return pa.table({"column": pa.array(names),
                         "pn": pa.array(ns, type=pa.int64()),
                         "pnn": pa.array(nns, type=pa.int64()),
                         "pmn": pa.array(mns, type=pa.float64()),
                         "pmx": pa.array(mxs, type=pa.float64())})

    return ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("column").aggregate(
            Sum("pn", alias_name="n"),
            Sum("pnn", alias_name="n_null"),
            Min("pmn", alias_name="min_val"),
            Max("pmx", alias_name="max_val"))


def exact_size_sample(ds, key_col: str, n: int, seed: int = 1):
    """EXACT-size uniform sample without replacement: the ``n`` rows
    with the smallest golden-ratio key hash (ppm sampling is Bernoulli —
    size only approximate; this is the fixed-budget variant, the
    distributed stand-in for reservoir sampling and just as
    deterministic/resume-stable).

    Scale shape: a distributed top-n — every batch prunes itself to its
    own n smallest hashes, so only n·blocks candidate rows ever leave
    the workers; one tiny final sort finishes.  SQL twin: ORDER BY the
    identical HUGEINT hash LIMIT n."""
    mix, s = np.uint64(SAMPLE_MIX), np.uint64(seed)

    def prune(t: pa.Table) -> pa.Table:
        k = t[key_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            h = (k + s) * mix  # wraps mod 2^64
        t = t.append_column("_h", pa.array(h, type=pa.uint64()))
        if len(t) > n:
            idx = np.argpartition(h, n)[:n]
            t = t.take(pa.array(np.sort(idx)))
        return t

    cand = ds_to_table(ds.map_batches(prune, batch_format="pyarrow"))
    out = cand.sort_by([("_h", "ascending"), (key_col, "ascending")]) \
        .slice(0, n)
    return out.drop_columns(["_h"])


def mixture_sample(ds, key_col: str, strata_col: str, weights: dict,
                   seed: int = 1):
    """Dataset-mixing sampler (the corpus-mixture step of LM data
    recipes): pick per-stratum keep rates so the OUTPUT hits the target
    ``weights`` proportions at the maximum size the corpus supports —
    T = min_s(n_s / w_s), rate_s = floor(1e6 · w_s · T / n_s) ppm (the
    binding stratum keeps ~everything, abundant strata downsample).

    ONE tiny counting pass (per-batch partials → per-stratum groupby,
    strata-sized result on the driver), then the same pure per-row
    golden-ratio hash filter as ``deterministic_sample`` — no shuffle of
    the data itself, stable across parallelism/resume, SQL-expressible
    (identical float expression shapes, so both engines land on the same
    side of any floor boundary).

    Partitioning assumption: the STRATA domain is bounded (languages,
    sources, buckets — 10²-10⁴), since the rate map rides in the task
    spec; for 10⁷-cardinality strata (raw domains) pre-bucket the
    stratum column first."""
    from ray.data.aggregate import Sum

    def count_partial(batch: pa.Table) -> pa.Table:
        g = batch.select([strata_col]).group_by(strata_col) \
            .aggregate([([], "count_all")])
        return pa.table({strata_col: g[strata_col],
                         "pn": g["count_all"].cast(pa.int64())})

    counts = ds_to_table(
        ds.map_batches(count_partial, batch_format="pyarrow")
        .groupby(strata_col).aggregate(Sum("pn", alias_name="n"))) \
        .to_pandas()
    n_s = dict(zip(counts[strata_col], counts["n"].astype(np.int64)))
    t = min(n_s[s] / weights[s] for s in n_s if weights.get(s, 0) > 0)
    rates = {s: int(np.floor(1_000_000.0 * weights[s] * t / n_s[s]))
             for s in n_s if weights.get(s, 0) > 0}
    return stratified_sample(ds, key_col=key_col, strata_col=strata_col,
                             rates_ppm=rates, default_ppm=0, seed=seed)


def grouped_mode(ds, key_col: str, val_col: str):
    """Most frequent value per key (ties → smallest value) — the MODE()
    aggregate.  Per-batch arrow (key, val) count partials shrink the
    exchange → one coarse key-bucket shuffle, whose kernel sums the
    partials of its keys and picks each key's argmax vectorized (a key's
    partials all land in its bucket).  A null key is one group, as in SQL.
    Emits (key, mode_value, n_mode)."""
    def partial(batch: pa.Table) -> pa.Table:
        g = batch.select([key_col, val_col]) \
            .group_by([key_col, val_col]).aggregate([([], "count_all")])
        return pa.table({key_col: g[key_col], val_col: g[val_col],
                         "pn": g["count_all"].cast(pa.int64())})

    def pick(group: pd.DataFrame) -> pa.Table:
        n = group.groupby([key_col, val_col], sort=False, dropna=False)[
            "pn"].sum().rename("n_mode").reset_index()
        g = n.sort_values([key_col, "n_mode", val_col],
                          ascending=[True, False, True], kind="mergesort") \
            .groupby(key_col, sort=False, dropna=False).head(1)
        return pa.Table.from_pandas(
            g.rename(columns={val_col: "mode_value"})[
                [key_col, "mode_value", "n_mode"]], preserve_index=False)

    return bucket_shuffle(ds, key_col, pick, prepare=partial)


def hash_split(ds, key_col: str, splits: dict, seed: int = 1):
    """Deterministic train/val/test assignment: the key's golden-ratio-mix
    hash mod 1e6 falls into cumulative ppm bands (``splits`` maps label →
    ppm, summing to 1e6).  Pure per-row map — no shuffle, no RNG state,
    stable across parallelism and resume, and a disjoint EXHAUSTIVE
    partition of the corpus (every row gets exactly one label), unlike
    repeated sampling.  SQL twin: the identical HUGEINT arithmetic under
    a cumulative CASE."""
    if sum(splits.values()) != 1_000_000:
        raise ValueError("split ppm weights must sum to 1,000,000")
    labels = list(splits)
    bounds = np.cumsum([splits[k] for k in labels]).astype(np.uint64)
    mix = np.uint64(SAMPLE_MIX)
    s = np.uint64(seed)

    def f(t: pa.Table) -> pa.Table:
        k = t[key_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            h = ((k + s) * mix) % np.uint64(1_000_000)
        idx = np.searchsorted(bounds, h, side="right")
        lab = np.array(labels, dtype=object)[idx]
        return t.append_column("split", pa.array(lab, type=pa.string()))

    return ds.map_batches(f, batch_format="pyarrow")


def _skyline_prune(max_col: str, min_col: str, keep_cols: list[str]):
    """Vectorized 2-D skyline over one Arrow batch: sort by (max_col desc,
    min_col asc); a row survives iff no strictly-better-price prefix row
    has min_col <= its own (dominance with >= / <= and one strict), and it
    carries its price group's minimal min_col.  Equal (max, min) twins are
    mutually non-dominating and all survive."""

    def prune(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        order = pc.sort_indices(t, sort_keys=[(max_col, "descending"),
                                              (min_col, "ascending")])
        t = t.take(order)
        mx = t[max_col].to_numpy(zero_copy_only=False)
        mn = t[min_col].to_numpy(zero_copy_only=False)
        n = len(mx)
        new_grp = np.empty(n, dtype=bool)
        new_grp[0] = True
        new_grp[1:] = mx[1:] != mx[:-1]
        grp = np.cumsum(new_grp) - 1                      # price-group id
        grp_first = mn[new_grp]                           # group min (asc)
        # best (min) min_col over STRICTLY higher price groups; group 0 is
        # unconstrained (no sentinel: min_col may be datetime64)
        pm = np.minimum.accumulate(grp_first)
        keep = (mn == grp_first[grp]) & \
            ((grp == 0) | (pm[np.maximum(grp - 1, 0)] > mn))
        return t.filter(pa.array(keep)).select(keep_cols)

    return prune


def skyline(ds, max_col: str, min_col: str, keep_cols: list[str] | None = None):
    """Distributed Pareto frontier (skyline): rows not dominated by any
    other row, dominance = (max_col >=, min_col <=) with at least one
    strict.  Scale shape: the per-batch prune is a COMBINER (the skyline
    of a union is the skyline of the unioned skylines), so every block
    reduces to its own tiny frontier before the single-task final prune —
    expected frontier size is O(log n) for independent dimensions, and
    nothing corpus-sized ever concentrates."""
    if not keep_cols:
        ds, sch = with_schema(ds)
        keep_cols = sch.names
    # dominance columns must survive the combine even when the caller's
    # projection drops them; project to keep_cols only after the final prune
    mid_cols = list(dict.fromkeys(keep_cols + [max_col, min_col]))
    combine = _skyline_prune(max_col, min_col, mid_cols)
    final = _skyline_prune(max_col, min_col, keep_cols)
    return ds.map_batches(combine, batch_format="pyarrow") \
        .repartition(1) \
        .map_batches(final, batch_format="pyarrow", batch_size=None)


def grouped_ordered_concat(events_ds, key_col: str, order_cols: list[str],
                           val_col: str, sep: str = ">",
                           out_col: str = "path"):
    """Ordered STRING_AGG per key — the event-path / clickstream shape
    (``STRING_AGG(v, sep ORDER BY ...) GROUP BY key``), also the
    anchor-text-aggregation shape for web graphs.  ONE coarse-bucket
    shuffle; per bucket a vectorized sort then C-backed join per group.
    Emits (key, out_col, n_events)."""
    def per_bucket(group: pd.DataFrame) -> pa.Table:
        df = group.sort_values([key_col, *order_cols])
        g = df.groupby(key_col, sort=False, dropna=False)
        agg = g[val_col].agg(sep.join)
        out = pd.DataFrame({
            key_col: agg.index.to_numpy(),
            out_col: agg.to_numpy(),
            "n_events": g.size().to_numpy().astype(np.int64)})
        return pa.Table.from_pandas(out, preserve_index=False)

    return bucket_shuffle(
        events_ds, key_col, per_bucket,
        prepare=lambda t: t.select([key_col, *order_cols, val_col]))


def weighted_sample(ds, key_col: str, weight_col: str, n: int,
                    seed: int = 1):
    """Weighted sampling WITHOUT replacement (Efraimidis-Spirakis A-ES):
    every row draws the deterministic golden-hash uniform u in (0, 1]; the n
    rows with the largest u^(1/w) win — inclusion odds proportional to
    weight, no RNG state, stable across parallelism and resume.  Ranked
    by the monotone-equivalent ln(u)/w so the SQL twin is ORDER BY the
    identical double arithmetic (both sides evaluate libm log on the
    same float64, so the order is bit-identical).

    Scale shape: a distributed top-n exactly like ``exact_size_sample``
    — per-batch argpartition prune to n, candidates are n x blocks rows,
    one tiny final sort."""
    mix, s = np.uint64(SAMPLE_MIX), np.uint64(seed)
    denom = float(1 << 64)

    def prune(t: pa.Table) -> pa.Table:
        k = t[key_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        w = t[weight_col].to_numpy(zero_copy_only=False).astype(np.float64)
        with np.errstate(over="ignore"):
            h = (k + s) * mix
        u = (h.astype(np.float64) + 1.0) / denom
        score = np.log(u) / w
        t = t.append_column("_sc", pa.array(score, type=pa.float64()))
        if len(t) > n:
            idx = np.argpartition(-score, n)[:n]
            t = t.take(pa.array(np.sort(idx)))
        return t

    cand = ds_to_table(ds.map_batches(prune, batch_format="pyarrow"))
    out = cand.sort_by([("_sc", "descending"), (key_col, "ascending")]) \
        .slice(0, n)
    return out.drop_columns(["_sc"])


def longest_consecutive_run(events_ds, key_col: str, ts_col: str):
    """Gaps-and-islands: longest run of CONSECUTIVE active days per key
    (the activity-streak shape).  Per batch, (key, day) pairs dedupe
    BEFORE the one coarse-bucket shuffle; per bucket a vectorized sort +
    cumcount gives the classic day - row_number island id, then two C
    groupbys (island size, max per key).  Emits (key, longest_streak)."""
    def key_days(batch: pa.Table) -> pa.Table:
        d = batch[ts_col].to_numpy(zero_copy_only=False) \
            .astype("datetime64[D]").astype(np.int64)
        return pa.table({key_col: batch[key_col], "_day": pa.array(d)}) \
            .group_by([key_col, "_day"]).aggregate([])

    def per_bucket(group: pd.DataFrame) -> pa.Table:
        df = group.drop_duplicates([key_col, "_day"]) \
            .sort_values([key_col, "_day"])
        g = df.groupby(key_col, sort=False, dropna=False)
        island = df["_day"].to_numpy() - g.cumcount().to_numpy()
        df = df.assign(_island=island)
        runs = df.groupby([key_col, "_island"], sort=False,
                          dropna=False).size()
        best = runs.groupby(level=0, dropna=False).max()
        return pa.table({
            key_col: pa.array(best.index.to_numpy(), from_pandas=True),
            "longest_streak": pa.array(best.to_numpy(dtype=np.int64))})

    return bucket_shuffle(events_ds, key_col, per_bucket, prepare=key_days)


def detect_hot_keys(ds, on: str, capacity: int = 64,
                    hot_fraction: float = 0.02) -> list:
    """Streaming heavy-key detection (Misra-Gries flavor): each batch
    contributes its top-``capacity`` key counts (a LOWER bound on the
    true count — dropped tails only ever under-count), one bounded
    groupby sums the partials, and keys whose bound reaches
    ``hot_fraction`` of the total row count come back as the hot list.
    Detection is a planner HINT: the salted and plain joins produce
    identical results, so an undercounted borderline key costs only
    the salting benefit, never correctness.  Nothing here is
    corpus-scaled — the exchange is ≤ capacity rows per batch."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        g = t.select([on]).group_by(on).aggregate([([], "count_all")])
        c = g["count_all"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = np.argsort(-c, kind="stable")[:capacity]
        return pa.table({on: g[on].take(pa.array(keep)),
                         "pn": pa.array(c[keep])})

    parts = ds_to_table(ds.map_batches(partial, batch_format="pyarrow")
                        .groupby(on).aggregate(
                            Sum("pn", alias_name="n"))).to_pandas()
    if parts.empty:
        return []
    n_total = ds.count()
    hot = parts[parts["n"] >= hot_fraction * max(n_total, 1)]
    return sorted(hot[on].tolist())


def adaptive_join(left_ds, right_ds, on: str, salt: int = 8,
                  capacity: int = 64,
                  hot_fraction: float = 0.02, how: str = "inner"):
    """Skew-ADAPTIVE large×large join: one streaming heavy-key pass
    over the (materialized) left side decides the physical plan —
    scorching keys detected → ``salted_join`` with exactly that hot
    list; uniform keys → the plain bucketed hash join.  The decision
    is automatic, so pipelines don't need to know their key skew up
    front — the measured-histogram-then-salt loop the 100-TB guide
    prescribes, folded into one operator.  Inner/left only (the salted
    leg replicates hot right rows, which breaks right/full-outer
    semantics — the plain join covers those)."""
    if how not in ("inner", "left"):
        raise ValueError("adaptive_join supports how='inner'/'left'")
    left = left_ds if not hasattr(left_ds, "materialize") \
        else left_ds.materialize()
    hot = detect_hot_keys(left, on, capacity=capacity,
                          hot_fraction=hot_fraction)
    if hot:
        return salted_join(left, right_ds, on, hot_keys=hot, salt=salt,
                           how=how)
    return bucketed_hash_join(left, right_ds, on=on, how=how)
