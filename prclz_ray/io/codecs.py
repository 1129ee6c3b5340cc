"""Import/export codecs: CSV-with-WKT and GeoJSON ↔ the engine's
WKB-in-Parquet tables.

Reference parity (SURVEY §2.1):
  S4  CSV-with-WKT reader  — prclz ``utils.py:45-62`` ``csv_to_geo`` (pandas
      read_csv + shapely.wkt.loads per row; asserts block_id unique, derives
      gadm_code from the filename)
  S5  GeoJSON reader       — ``gpd.read_file`` call sites (``_parcels.py:194``,
      ``_reblock.py:332-333``)
  S7  CSV writer           — ``blocks/_extract_blocks.py:39``,
      ``_complexity.py:120-122`` (WKT geometry column)
  S8  GeoJSON writer       — ``_parcels.py:212``, ``_reblock.py:373``

All four are thin Ray Data stages: the cluster-side representation is
always WKB binary; WKT/GeoJSON exist only at the boundary.
"""
from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa

from ..geom import wkb


# ------------------------------------------------------------- CSV + WKT

def read_csv_wkt(paths, geometry_col: str = "geometry",
                 add_file_col: bool = False, unique_col: str | None = None):
    """S4: ray.data.read_csv → per-batch WKT→WKB decode. With
    ``add_file_col`` the source filename's stem is attached as ``gadm_code``
    (the reference's filename-derived region key, ``utils.py:58-61``).
    ``unique_col`` replicates the ``block_id`` uniqueness assert
    (``utils.py:53``) as a distributed check."""
    import ray.data as rd

    ds = rd.read_csv(paths, include_paths=add_file_col)

    def decode(batch: pa.Table) -> pa.Table:
        out = batch.set_column(
            batch.schema.get_field_index(geometry_col), geometry_col,
            pa.array([wkb.from_wkt(s) for s in batch[geometry_col].to_pylist()],
                     type=pa.binary()))
        if add_file_col:
            codes = [os.path.splitext(os.path.basename(p))[0].split("_")[-1]
                     for p in batch["path"].to_pylist()]
            out = out.drop_columns(["path"]).append_column(
                "gadm_code", pa.array(codes, type=pa.string()))
        return out

    out = ds.map_batches(decode, batch_format="pyarrow")
    if unique_col is not None:
        agg = out.groupby(unique_col).count().map_batches(
            lambda t: t.rename_columns([unique_col, "cnt"]),
            batch_format="pyarrow")
        dup = agg.filter(expr="cnt > 1").count()
        if dup:
            raise ValueError(
                f"read_csv_wkt: {dup} duplicate values in '{unique_col}'")
    return out


def write_csv_wkt(ds, path: str, geometry_cols=("geometry",)):
    """S7: WKB→WKT encode then partitioned CSV write."""
    def encode(batch: pa.Table) -> pa.Table:
        for col in geometry_cols:
            if col in batch.column_names:
                batch = batch.set_column(
                    batch.schema.get_field_index(col), col,
                    pa.array([None if b is None else wkb.to_wkt(b)
                              for b in batch[col].to_pylist()],
                             type=pa.string()))
        return batch

    ds.map_batches(encode, batch_format="pyarrow").write_csv(path)
    return path


# --------------------------------------------------------------- GeoJSON

_GEOM_DECODERS = {
    "Point": lambda c: wkb.point(float(c[0]), float(c[1])),
    "LineString": lambda c: wkb.linestring(np.asarray(c, dtype=np.float64)),
    "Polygon": lambda c: wkb.polygon(
        [np.asarray(r, dtype=np.float64) for r in c]),
    "MultiPolygon": lambda c: wkb.multipolygon(
        [[np.asarray(r, dtype=np.float64) for r in poly] for poly in c]),
    "MultiLineString": lambda c: wkb.multilinestring(
        [np.asarray(ln, dtype=np.float64) for ln in c]),
}


def feature_to_row(feature: dict) -> dict:
    """One GeoJSON feature → flat row dict with WKB geometry."""
    geom = feature.get("geometry") or {}
    row = dict(feature.get("properties") or {})
    typ = geom.get("type")
    if typ in _GEOM_DECODERS:
        row["geometry"] = _GEOM_DECODERS[typ](geom.get("coordinates"))
    else:
        row["geometry"] = None
    return row


def read_geojson(paths):
    """S5: GeoJSON FeatureCollection file(s) → Dataset (one row per
    feature, WKB geometry). File-per-task distributed parse."""
    import ray.data as rd

    if isinstance(paths, str):
        paths = [paths]
    files = rd.from_items([{"path": p} for p in paths])

    def parse(batch: pa.Table) -> pa.Table:
        rows = []
        for p in batch["path"].to_pylist():
            with open(p) as f:
                fc = json.load(f)
            rows.extend(feature_to_row(ft) for ft in fc.get("features", []))
        return pa.Table.from_pylist(rows)

    return files.map_batches(parse, batch_format="pyarrow")


def row_to_feature(row: dict, geometry_col: str = "geometry") -> dict:
    props = {k: v for k, v in row.items() if k != geometry_col}
    buf = row.get(geometry_col)
    geom = None
    if buf is not None:
        t, v = wkb.decode(buf)
        if t == wkb.POINT:
            geom = {"type": "Point", "coordinates": list(v)}
        elif t == wkb.LINESTRING:
            geom = {"type": "LineString", "coordinates": v.tolist()}
        elif t == wkb.POLYGON:
            geom = {"type": "Polygon", "coordinates": [r.tolist() for r in v]}
        elif t == wkb.MULTILINESTRING:
            geom = {"type": "MultiLineString",
                    "coordinates": [ln.tolist() for ln in v]}
        elif t == wkb.MULTIPOLYGON:
            geom = {"type": "MultiPolygon",
                    "coordinates": [[r.tolist() for r in poly] for poly in v]}
    return {"type": "Feature", "properties": props, "geometry": geom}


def write_geojson(ds, path: str, geometry_col: str = "geometry",
                  append_merge: bool = True):
    """S8: Dataset → one GeoJSON FeatureCollection. The reference
    append-merges when the file exists (``split_buildings.py:145-152``);
    replicated here with idempotent rewrite. Small outputs only — for
    corpus-scale results use ``write_parquet`` partitioned by cell."""
    import pandas as pd

    df = ds.to_pandas() if not isinstance(ds, pd.DataFrame) else ds
    feats = [row_to_feature(r, geometry_col) for r in df.to_dict("records")]
    if append_merge and os.path.exists(path):
        with open(path) as f:
            existing = json.load(f).get("features", [])
        feats = existing + feats
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"type": "FeatureCollection", "features": feats}, f)
    os.replace(tmp, path)
    return path


def write_jsonl(ds, path: str):
    """Line-delimited JSON sink: one ``.json`` file per block via Ray
    Data's native writer (each line one record) — the interchange format
    web-corpus tooling expects.  Partitioned like every other sink, so a
    downstream reader streams block-parallel."""
    ds.write_json(path)


def read_jsonl(paths):
    """Line-delimited JSON source via ``ray.data.read_json`` — schema
    inferred from the records, block-parallel."""
    import ray.data as rd
    return rd.read_json(paths)


def read_csv_quarantine(paths, columns: list[str], int_cols=()):
    """Robust headerless-CSV ingest: malformed rows (wrong field count,
    or an integer column that doesn't parse) are FLAGGED instead of
    poisoning the pipeline — the quarantine pattern every web-scale
    ingest needs, since a 100 TB crawl always contains torn lines.

    Validation is fully vectorized (Arrow split + list-length check,
    pandas ``to_numeric(errors='coerce')`` for the int casts — never a
    per-row try/except in the hot path).  Returns one streaming Dataset
    with the parsed columns (null on quarantined rows) plus
    ``_quarantined`` (bool) and ``_raw`` (the original line, only for
    quarantined rows) so the caller can route rows to the good path and
    a quarantine sink in the SAME pass."""
    import pyarrow.compute as pc
    import ray.data as rd

    n = len(columns)
    int_set = set(int_cols)

    def parse(batch: pa.Table) -> pa.Table:
        lines = batch["text"]
        parts = pc.split_pattern(lines, pattern=",")
        ok = pc.equal(pc.list_value_length(parts), n)
        cols = {}
        ok_np = ok.to_numpy(zero_copy_only=False)
        # list_element needs uniform length: substitute a padded dummy
        # for bad rows, then null them out.  Split ONCE per batch, not
        # once per column — the split is the expensive kernel here.
        padded = pc.split_pattern(
            pc.if_else(ok, lines, pa.scalar("," * (n - 1))), ",")
        for i, name in enumerate(columns):
            field = pc.list_element(padded, i)
            if name in int_set:
                num = pd.to_numeric(field.to_pandas(), errors="coerce")
                # non-parseable OR numeric-but-non-integral ('4.5',
                # '1e3'): both quarantine — a blind astype('Int64')
                # on a fractional float raises and kills the task,
                # the exact failure this reader exists to absorb
                bad_int = (num.isna() | (num % 1 != 0)).to_numpy()
                ok_np = ok_np & ~bad_int
                cols[name] = num
            else:
                cols[name] = field.to_pandas()
        out = pd.DataFrame(cols)
        for name in columns:           # null every field of a bad row
            out.loc[~ok_np, name] = None
        out["_quarantined"] = ~ok_np
        raw = batch["text"].to_pandas()
        out["_raw"] = raw.where(~ok_np, None)
        for name in int_set:
            out[name] = out[name].astype("Int64")
        return pa.Table.from_pandas(out, preserve_index=False)

    return rd.read_text(paths).map_batches(parse, batch_format="pyarrow")


def write_ipc(ds, path: str):
    """Arrow IPC (Feather v2) sink: one ``.arrow`` file per block —
    the zero-copy interchange format for Arrow-native neighbors
    (DuckDB, polars, another Ray cluster).  Memory-mappable on read,
    so a same-host consumer pays no deserialization at all."""
    import os

    import pyarrow.feather as feather

    os.makedirs(path, exist_ok=True)

    def write_block(t: pa.Table) -> pa.Table:
        import uuid
        f = os.path.join(path, f"block-{uuid.uuid4().hex}.arrow")
        feather.write_feather(t, f)
        return pa.table({"file": pa.array([f]),
                         "rows": pa.array([t.num_rows],
                                          type=pa.int64())})

    # the manifest (one row per written file) materializes — it is
    # file-count-sized, and consuming it is what forces the writes
    return ds.map_batches(write_block, batch_format="pyarrow",
                          batch_size=None).materialize()


def read_ipc(path: str):
    """Arrow IPC source: block-parallel read of a ``write_ipc``
    directory — each file becomes one task via ``read_binary_files``-
    free direct Feather loads inside ``map_batches`` over the file
    list (Ray has no native IPC reader; the file list is tiny)."""
    import glob
    import os

    import ray.data as rd

    files = sorted(glob.glob(os.path.join(path, "*.arrow")))

    def load(t: pa.Table) -> pa.Table:
        import pyarrow.feather as feather
        out = [feather.read_table(f) for f in
               t["file"].to_pylist()]
        return pa.concat_tables(out) if out else pa.table({})

    return rd.from_arrow(pa.table({"file": pa.array(files)})) \
        .repartition(max(len(files), 1)) \
        .map_batches(load, batch_format="pyarrow")


def write_orc(ds, path: str):
    """Apache ORC sink: one ``.orc`` file per block — the columnar
    interchange format for Hive/Spark-side neighbors.  Same
    manifest-returning contract as ``write_ipc``: the returned Dataset
    has one (file, rows) row per written file, and consuming it is what
    forces the writes; readers must adopt MANIFEST-named files only
    (Ray probe/retry replays can leave orphan files)."""
    import os

    from pyarrow import orc

    os.makedirs(path, exist_ok=True)

    def write_block(t: pa.Table) -> pa.Table:
        import uuid
        f = os.path.join(path, f"block-{uuid.uuid4().hex}.orc")
        orc.write_table(t, f)
        return pa.table({"file": pa.array([f]),
                         "rows": pa.array([t.num_rows],
                                          type=pa.int64())})

    return ds.map_batches(write_block, batch_format="pyarrow",
                          batch_size=None).materialize()


def read_orc(files):
    """Apache ORC source: block-parallel read over an explicit file
    list (pass the manifest's ``file`` column — never a directory
    glob, per the exactly-once adoption contract).  Ray has no native
    ORC reader; each file becomes one task via map_batches over the
    tiny file list."""
    import ray.data as rd

    files = sorted(files)

    def load(t: pa.Table) -> pa.Table:
        from pyarrow import orc
        out = [orc.read_table(f) for f in t["file"].to_pylist()]
        return pa.concat_tables(out) if out else pa.table({})

    return rd.from_arrow(pa.table({"file": pa.array(files)})) \
        .repartition(max(len(files), 1)) \
        .map_batches(load, batch_format="pyarrow")


def read_parquet_union_by_name(files):
    """Schema-evolution-tolerant parquet source: files written at
    different schema versions are aligned by COLUMN NAME — columns
    missing from an older file are null-filled at that file's rows,
    and the unified schema is the name-keyed union across all files
    (types must agree where names collide; the first file's type
    wins the slot order).  The schema union is computed from parquet
    FOOTERS only (no data read on the driver); the per-file align runs
    block-parallel."""
    import pyarrow.parquet as pq_
    import ray.data as rd

    files = sorted(files)
    unified: dict = {}
    for f in files:
        sch = pq_.read_schema(f)
        for field in sch:
            if field.name not in unified:
                unified[field.name] = field.type
    names = list(unified)

    def load(t: pa.Table) -> pa.Table:
        parts = []
        for f in t["file"].to_pylist():
            raw = pq_.read_table(f)
            cols = []
            for name in names:
                if name in raw.column_names:
                    cols.append(raw[name].cast(unified[name]))
                else:
                    cols.append(pa.nulls(raw.num_rows,
                                         type=unified[name]))
            parts.append(pa.table(dict(zip(names, cols))))
        return pa.concat_tables(parts) if parts else pa.table({})

    return rd.from_arrow(pa.table({"file": pa.array(files)})) \
        .repartition(max(len(files), 1)) \
        .map_batches(load, batch_format="pyarrow")


# --------------------------------------------------------- ESRI shapefile

# Minimal shapefile codec (reference ingests zipped shapefiles via
# geopandas/fiona, ``scripts/split-buildings/split_buildings.py:85-161``;
# this is the stdlib-decodable slice of that surface: .shp geometry
# records of type Point/PolyLine/Polygon/MultiPoint + .dbf attributes,
# plus the .shx index on write).  Cluster-side representation is WKB,
# as everywhere; the shapefile exists only at the boundary.

_SHP_NULL, _SHP_POINT, _SHP_POLYLINE, _SHP_POLYGON, _SHP_MULTIPOINT = \
    0, 1, 3, 5, 8


def _shp_geom(shape_type: int, body: bytes):
    """One .shp record body → engine geometry WKB (or None)."""
    import struct

    from ..geom.core import shoelace_area
    from ..geom.predicates import point_in_ring

    if shape_type == _SHP_NULL:
        return None
    if shape_type == _SHP_POINT:
        x, y = struct.unpack_from("<dd", body, 0)
        return wkb.point(x, y)
    if shape_type == _SHP_MULTIPOINT:
        (n,) = struct.unpack_from("<i", body, 32)
        pts = np.frombuffer(body, dtype="<f8", count=2 * n,
                            offset=36).reshape(n, 2)
        return wkb.multipoint(pts)
    if shape_type in (_SHP_POLYLINE, _SHP_POLYGON):
        nparts, npts = struct.unpack_from("<ii", body, 32)
        parts = list(struct.unpack_from(f"<{nparts}i", body, 40))
        coords = np.frombuffer(body, dtype="<f8", count=2 * npts,
                               offset=40 + 4 * nparts).reshape(npts, 2)
        rings = [coords[a:b] for a, b in
                 zip(parts, parts[1:] + [npts])]
        if shape_type == _SHP_POLYLINE:
            if len(rings) == 1:
                return wkb.linestring(rings[0])
            return wkb.multilinestring(rings)
        # polygon: ESRI outer rings are CLOCKWISE (shoelace < 0),
        # holes counter-clockwise; assign each hole to the outer
        # ring containing its first vertex
        outers = [r[::-1] for r in rings if shoelace_area(r) < 0]
        holes = [r[::-1] for r in rings if shoelace_area(r) >= 0]
        if not outers:                     # tolerate wrong winding
            outers, holes = [h[::-1] for h in holes], []
        # normalized to the engine's convention: exterior CCW, holes CW
        if len(outers) == 1:
            return wkb.polygon([outers[0]] + holes)
        polys = [[o] for o in outers]
        for h in holes:
            hx, hy = h[0]
            for p in polys:
                if point_in_ring(hx, hy, p[0]):
                    p.append(h)
                    break
        return wkb.multipolygon(polys)
    raise ValueError(f"unsupported shapefile shape type {shape_type}")


def _read_dbf_bytes(raw: bytes) -> tuple[dict, list[bool]]:
    """dBASE III attribute table → ({column: list} over the live rows,
    per-record deleted flags) (C/N/F/L types)."""
    import struct

    nrec, hdrlen, reclen = struct.unpack_from("<IHH", raw, 4)
    fields = []
    off = 32
    while raw[off] != 0x0D:
        name = raw[off:off + 11].split(b"\0")[0].decode("ascii")
        ftype = chr(raw[off + 11])
        flen = raw[off + 16]
        fields.append((name, ftype, flen))
        off += 32
    cols: dict = {name: [] for name, _, _ in fields}
    deleted = []
    for i in range(nrec):
        base = hdrlen + i * reclen
        deleted.append(raw[base:base + 1] == b"*")
        if deleted[-1]:
            continue
        p = base + 1
        for name, ftype, flen in fields:
            s = raw[p:p + flen].decode("ascii", "replace").strip()
            p += flen
            if ftype in ("N", "F"):
                if not s:
                    cols[name].append(None)
                elif ("." in s or "e" in s or "E" in s):
                    cols[name].append(float(s))
                else:
                    cols[name].append(int(s))
            elif ftype == "L":
                cols[name].append(s in ("T", "t", "Y", "y"))
            else:
                cols[name].append(s)
    return cols, deleted


def _shp_table(shp_raw: bytes, dbf_raw: bytes | None,
               names_raw: bytes | None) -> pa.Table:
    """Parse one shapefile unit (raw .shp + optional .dbf +
    optional names-sidecar bytes) into an Arrow block.  A bad file code
    or a record that runs past the end of the file raises ``ValueError``
    naming the byte offset, never a short table."""
    import struct

    n = len(shp_raw)
    code = struct.unpack_from(">i", shp_raw, 0)[0] if n >= 100 else None
    if code != 9994:
        raise ValueError(f"not a shapefile: file code {code} at byte "
                         f"offset 0 (want 9994 and a 100-byte header)")
    geoms = []
    off = 100
    while off < n:
        if off + 12 > n:
            raise ValueError(f"shapefile record header at byte offset "
                             f"{off} is truncated ({n - off} of 12 bytes)")
        _, clen = struct.unpack_from(">ii", shp_raw, off)
        end = off + 8 + 2 * clen
        if clen < 2 or end > n:
            raise ValueError(f"shapefile record at byte offset {off} "
                             f"declares {2 * clen} content bytes, "
                             f"{n - off - 8} remain")
        (stype,) = struct.unpack_from("<i", shp_raw, off + 8)
        try:
            geoms.append(_shp_geom(stype, shp_raw[off + 12:end]))
        except struct.error as e:
            raise ValueError(f"shapefile record at byte offset {off} "
                             f"is malformed: {e}") from None
        off = end
    cols = {}
    if dbf_raw is not None:
        cols, deleted = _read_dbf_bytes(dbf_raw)
        if len(deleted) != len(geoms):
            raise ValueError(f"shapefile has {len(geoms)} shape records "
                             f"but its .dbf has {len(deleted)}")
        # a row deleted in the .dbf takes its shape record with it
        geoms = [g for g, dead in zip(geoms, deleted) if not dead]
    if names_raw is not None:
        # sidecar written by write_shapefile for names the 10-char
        # DBF limit truncated
        longnames = json.loads(names_raw)
        cols = {longnames.get(k, k): v for k, v in cols.items()}
    cols["geometry"] = geoms
    return pa.table({
        k: pa.array(v, type=pa.binary())
        if k == "geometry" else pa.array(v)
        for k, v in cols.items()})


def read_shapefile(paths):
    """Shapefile source: block-parallel over the file list (one task
    per .shp or .zip, same shape as ``read_orc``) — each task parses
    its .shp records + sibling .dbf attributes into one Arrow block
    with a ``geometry: binary`` (WKB) column.  A ``.zip`` path is the
    reference's shapefile-in-zip input
    (``scripts/split-buildings/split_buildings.py:85-161``): every
    ``.shp`` member inside is parsed with its in-archive siblings, and a
    member with no ``.dbf`` sibling raises ``ValueError`` naming the
    archive and the member (its rows would carry no attributes)."""
    import ray.data as rd

    if isinstance(paths, str):
        paths = [paths]
    files = sorted(p[:-4] if p.endswith(".shp") else p for p in paths)

    def _read_opt(path):
        if os.path.exists(path):
            with open(path, "rb") as f:
                return f.read()
        return None

    def load(t: pa.Table) -> pa.Table:
        out = []
        for base in t["base"].to_pylist():
            if base.endswith(".zip"):
                import zipfile
                with zipfile.ZipFile(base) as zf:
                    # sibling lookup ignores case: archives built on
                    # Windows mix "A.SHP" with "a.dbf"
                    names = {m.lower(): m for m in zf.namelist()}

                    def sibling(stem, ext):
                        m = names.get(stem + ext)
                        return zf.read(m) if m is not None else None

                    for low in sorted(names):
                        if low.endswith(".shp"):
                            stem = low[:-4]
                            dbf = sibling(stem, ".dbf")
                            if dbf is None:
                                raise ValueError(
                                    f"{base}: shapefile member "
                                    f"{names[low]!r} has no .dbf sibling")
                            out.append(_shp_table(
                                zf.read(names[low]), dbf,
                                sibling(stem, ".names.json")))
            else:
                out.append(_shp_table(
                    open(base + ".shp", "rb").read(),
                    _read_opt(base + ".dbf"),
                    _read_opt(base + ".names.json")))
        return pa.concat_tables(out) if out else pa.table({})

    return rd.from_arrow(pa.table({"base": pa.array(files)})) \
        .repartition(max(len(files), 1)) \
        .map_batches(load, batch_format="pyarrow")


def _ring_cw(r: np.ndarray) -> np.ndarray:
    from ..geom.core import ensure_closed, shoelace_area
    r = ensure_closed(np.asarray(r, dtype=np.float64))
    return r[::-1] if shoelace_area(r) > 0 else r


def _shp_body(geom_wkb: bytes):
    """WKB → (esri shape type, record body bytes)."""
    import struct

    if geom_wkb is None:
        return _SHP_NULL, b""
    kind, val = wkb.decode(geom_wkb)
    if kind == wkb.POINT:
        return _SHP_POINT, struct.pack("<dd", float(val[0]),
                                       float(val[1]))
    if kind == wkb.MULTIPOINT:
        pts = np.asarray(val, dtype="<f8")
        bb = (pts[:, 0].min(), pts[:, 1].min(),
              pts[:, 0].max(), pts[:, 1].max())
        return _SHP_MULTIPOINT, (struct.pack("<4d", *bb)
                                 + struct.pack("<i", len(pts))
                                 + pts.tobytes())
    if kind in (wkb.LINESTRING, wkb.MULTILINESTRING):
        lines = [val] if kind == wkb.LINESTRING else list(val)
        stype = _SHP_POLYLINE
        rings = [np.asarray(ln, dtype="<f8") for ln in lines]
    else:
        polys = [val] if kind == wkb.POLYGON else list(val)
        stype = _SHP_POLYGON
        rings = []
        for rs in polys:
            # outer CW, holes CCW per ESRI spec
            rings.append(_ring_cw(rs[0]).astype("<f8"))
            for h in rs[1:]:
                rings.append(_ring_cw(h)[::-1].astype("<f8"))
    allpts = np.concatenate(rings)
    bb = (allpts[:, 0].min(), allpts[:, 1].min(),
          allpts[:, 0].max(), allpts[:, 1].max())
    parts, acc = [], 0
    for r in rings:
        parts.append(acc)
        acc += len(r)
    body = (struct.pack("<4d", *bb)
            + struct.pack("<ii", len(rings), acc)
            + struct.pack(f"<{len(parts)}i", *parts)
            + np.ascontiguousarray(allpts).tobytes())
    return stype, body


def _write_dbf(path: str, tbl: pa.Table, skip=("geometry",)):
    import struct

    fields = []        # (name, type, len, dec, values-as-strings)
    for name in tbl.column_names:
        if name in skip:
            continue
        col = tbl[name]
        t = col.type
        if pa.types.is_integer(t):
            vals = [("" if v is None else str(v))
                    for v in col.to_pylist()]
            fields.append((name[:10], "N", 19, 0, vals))
        elif pa.types.is_floating(t):
            vals = [("" if v is None or v != v else f"{v:.17g}")
                    for v in col.to_pylist()]
            fields.append((name[:10], "N", 30, 15, vals))
        elif pa.types.is_boolean(t):
            vals = [("" if v is None else ("T" if v else "F"))
                    for v in col.to_pylist()]
            fields.append((name[:10], "L", 1, 0, vals))
        else:
            vals = [("" if v is None else str(v))
                    for v in col.to_pylist()]
            w = min(max([len(v.encode()) for v in vals] + [1]), 254)
            fields.append((name[:10], "C", w, 0, vals))
    nrec = tbl.num_rows
    hdrlen = 32 + 32 * len(fields) + 1
    reclen = 1 + sum(f[2] for f in fields)
    buf = bytearray()
    buf += struct.pack("<B3BIHH", 0x03, 26, 8, 21, nrec, hdrlen,
                       reclen)
    buf += b"\0" * 20
    for name, ftype, flen, dec, _ in fields:
        buf += struct.pack("<11sc4xBB14x", name.encode("ascii"),
                           ftype.encode("ascii"), flen, dec)
    buf += b"\x0D"
    for i in range(nrec):
        buf += b" "
        for name, ftype, flen, dec, vals in fields:
            s = vals[i]
            if ftype in ("N", "F"):
                buf += s.rjust(flen)[:flen].encode("ascii")
            else:
                buf += s.ljust(flen)[:flen].encode("ascii", "replace")
    buf += b"\x1A"
    with open(path, "wb") as f:
        f.write(bytes(buf))


def write_shapefile(ds, base_path: str, geometry_col: str = "geometry"):
    """Shapefile sink (boundary codec for SMALL per-partition exports,
    like ``write_geojson``): writes ``base_path``.shp/.shx/.dbf.  All
    geometries must map to one ESRI type class (shapefiles are
    single-type by format)."""
    import struct

    from ..stages.relational import ds_to_table

    tbl = ds if isinstance(ds, pa.Table) else ds_to_table(ds)
    geoms = tbl[geometry_col].to_pylist()
    bodies = [_shp_body(g) for g in geoms]
    stypes = {s for s, _ in bodies if s != _SHP_NULL}
    assert len(stypes) <= 1, f"mixed shapefile types {stypes}"
    stype = stypes.pop() if stypes else _SHP_NULL
    rec_bufs, shx, off = [], [], 50      # offsets in 16-bit words
    for i, (s, body) in enumerate(bodies):
        content = struct.pack("<i", s) + body
        clen = len(content) // 2
        rec_bufs.append(struct.pack(">ii", i + 1, clen) + content)
        shx.append(struct.pack(">ii", off, clen))
        off += 4 + clen
    allpts = [np.asarray(wkb.coords(g)) for g in geoms
              if g is not None]
    if allpts:
        cat = np.concatenate(allpts)
        bb = (cat[:, 0].min(), cat[:, 1].min(),
              cat[:, 0].max(), cat[:, 1].max())
    else:
        bb = (0.0, 0.0, 0.0, 0.0)

    def header(total_words: int) -> bytes:
        return (struct.pack(">i20xi", 9994, total_words)
                + struct.pack("<ii", 1000, stype)
                + struct.pack("<4d", *bb) + b"\0" * 32)

    with open(base_path + ".shp", "wb") as f:
        f.write(header(off))
        for r in rec_bufs:
            f.write(r)
    with open(base_path + ".shx", "wb") as f:
        f.write(header(50 + 4 * len(shx)))
        for r in shx:
            f.write(r)
    _write_dbf(base_path + ".dbf", tbl, skip=(geometry_col,))
    truncated = {n[:10]: n for n in tbl.column_names
                 if n != geometry_col and len(n) > 10}
    if truncated:
        with open(base_path + ".names.json", "w") as f:
            json.dump(truncated, f)
    return base_path
