"""OSM PBF (.osm.pbf) reader — the reference's REAL ingestion format.

The reference shells out to ogr2ogr over a Geofabrik `.osm.pbf` extract
(S2/S3: ``etl/_extract.py:5-18``, SQL filter ``scripts/extract.sh:21-23``
``highway IS NOT NULL OR natural = 'coastline' OR waterway IS NOT NULL``,
field list ``scripts/osmconf.ini``).  This module replaces that shell-out
with a pure stdlib + numpy parser of the PBF wire format itself
(fileformat framing → zlib blobs → protobuf PrimitiveBlocks → dense-node
delta streams and ways), so a prclz user's actual input files load
without GDAL.

Scale shape: one Ray task per file (Geofabrik ships per-region extracts,
so file-level parallelism IS region parallelism, matching the
reference's per-region loop); within a file the node-coordinate map is
held in one numpy-backed dict while ways stream.  A planet-scale file
would need a node-shard pass first — documented, out of scope for the
per-region inputs the reference consumes.

The tiny protobuf subset is hand-decoded (varint / zigzag / packed
fields); the writer exists so tests exercise REAL files end-to-end,
mirroring the BMP/WAV/JPEG codec pattern in ``stages/multimodal.py``.
"""
from __future__ import annotations

import struct
import zlib

import numpy as np
import pyarrow as pa

from ..geom import wkb

# --------------------------------------------------------------- protobuf


def _rv(buf: bytes, pos: int) -> tuple[int, int]:
    """Read one varint; return (value, new_pos).  One that runs past the
    buffer or past 10 bytes raises ``ValueError`` naming its offset."""
    start = pos
    out = 0
    shift = 0
    while True:
        try:
            b = buf[pos]
        except IndexError:
            raise ValueError(f"truncated varint at byte {start}") from None
        pos += 1
        out |= (b & 0x7F) << shift
        if not b & 0x80:
            return out, pos
        shift += 7
        if shift == 70:
            raise ValueError(f"bad varint at byte {start}: over 10 bytes")


def _zz(v: int) -> int:
    """Zigzag-decode a signed varint."""
    return (v >> 1) ^ -(v & 1)


def _fields(buf: bytes):
    """Iterate (field_no, wire_type, value) over one message.
    value is int for varint fields, bytes for length-delimited.  A field
    that runs past the end of the message raises ``ValueError``."""
    pos = 0
    n = len(buf)
    while pos < n:
        start = pos
        key, pos = _rv(buf, pos)
        fno, wt = key >> 3, key & 7
        if wt == 0:
            v, pos = _rv(buf, pos)
            yield fno, wt, v
            continue
        if wt == 2:
            ln, pos = _rv(buf, pos)
        elif wt in (1, 5):
            ln = 8 if wt == 1 else 4
        else:
            raise ValueError(f"unsupported wire type {wt} at byte {start}")
        if pos + ln > n:
            raise ValueError(f"field {fno} at byte {start} runs past the "
                             f"end of its {n}-byte message")
        yield fno, wt, buf[pos:pos + ln]
        pos += ln


def _packed(buf: bytes, signed: bool = False) -> list[int]:
    out = []
    pos = 0
    while pos < len(buf):
        v, pos = _rv(buf, pos)
        out.append(_zz(v) if signed else v)
    return out


def _ev(v: int) -> bytes:
    """Encode a varint."""
    out = bytearray()
    while True:
        b = v & 0x7F
        v >>= 7
        if v:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _ezz(v: int) -> bytes:
    return _ev((v << 1) ^ (v >> 63) if v < 0 else v << 1)


def _tag(fno: int, wt: int) -> bytes:
    return _ev((fno << 3) | wt)


def _ld(fno: int, body: bytes) -> bytes:
    return _tag(fno, 2) + _ev(len(body)) + body


# ------------------------------------------------------------ file frames

# Blob fields 4-7 (fileformat.proto): compressions the stdlib cannot
# decode
_UNSUPPORTED_BLOB = {4: "lzma", 5: "bzip2", 6: "lz4", 7: "zstd"}


def _iter_blobs(raw: bytes):
    """Yield (blob_type, decompressed PrimitiveBlock/HeaderBlock bytes).
    A frame cut short, or a header/blob that does not decode, raises
    ``ValueError`` naming the frame's file offset."""
    pos = 0
    n = len(raw)
    while pos < n:
        frame = pos
        try:
            if pos + 4 > n:
                raise ValueError("truncated BlobHeader length")
            (hlen,) = struct.unpack_from(">i", raw, pos)
            pos += 4
            if hlen < 0 or pos + hlen > n:
                raise ValueError(f"{hlen}-byte BlobHeader runs past the "
                                 f"end of the {n}-byte file")
            btype = b""
            dsize = 0
            for fno, _, v in _fields(raw[pos:pos + hlen]):
                if fno == 1:
                    btype = v
                elif fno == 3:
                    dsize = v
            pos += hlen
            if pos + dsize > n:
                raise ValueError(f"{dsize}-byte Blob runs past the end of "
                                 f"the {n}-byte file")
            data = b""
            for fno, _, v in _fields(raw[pos:pos + dsize]):
                if fno == 1:                     # raw
                    data = v
                elif fno == 3:                   # zlib_data
                    data = zlib.decompress(v)
                elif fno in _UNSUPPORTED_BLOB:
                    raise ValueError(
                        f"{_UNSUPPORTED_BLOB[fno]}-compressed PBF blob: "
                        "only raw and zlib blobs are supported")
            pos += dsize
        except (ValueError, zlib.error) as e:
            raise ValueError(f"PBF frame at byte {frame}: {e}") from None
        yield btype.decode("ascii", "replace"), data


def _parse_block(block: bytes):
    """PrimitiveBlock → (strings, nodes {id: (lon, lat)}, ways list).
    ways: (way_id, tags dict, refs list)."""
    strings: list[str] = []
    groups: list[bytes] = []
    gran = 100
    lat_off = lon_off = 0
    for fno, _, v in _fields(block):
        if fno == 1:                         # stringtable
            for f2, _, s in _fields(v):
                if f2 == 1:
                    strings.append(s.decode("utf-8", "replace"))
        elif fno == 2:
            groups.append(v)
        elif fno == 17:
            gran = v
        elif fno == 19:
            lat_off = v
        elif fno == 20:
            lon_off = v
    nodes: dict[int, tuple[float, float]] = {}
    ways = []
    scale = 1e-9
    for g in groups:
        for fno, _, v in _fields(g):
            if fno == 2:                     # DenseNodes
                ids = lats = lons = None
                kv: list[int] = []
                for f2, _, p in _fields(v):
                    if f2 == 1:
                        ids = _packed(p, signed=True)
                    elif f2 == 8:
                        lats = _packed(p, signed=True)
                    elif f2 == 9:
                        lons = _packed(p, signed=True)
                    elif f2 == 10:
                        kv = _packed(p)
                if ids:
                    cid = clat = clon = 0
                    for i in range(len(ids)):
                        cid += ids[i]
                        clat += lats[i]
                        clon += lons[i]
                        nodes[cid] = (
                            scale * (lon_off + gran * clon),
                            scale * (lat_off + gran * clat))
            elif fno == 1:                   # plain Node
                nid = None
                la = lo = 0
                for f2, _, p in _fields(v):
                    if f2 == 1:
                        nid = _zz(p)
                    elif f2 == 8:
                        la = _zz(p)
                    elif f2 == 9:
                        lo = _zz(p)
                if nid is not None:
                    nodes[nid] = (scale * (lon_off + gran * lo),
                                  scale * (lat_off + gran * la))
            elif fno == 3:                   # Way
                wid = None
                keys: list[int] = []
                vals: list[int] = []
                refs: list[int] = []
                for f2, _, p in _fields(v):
                    if f2 == 1:
                        wid = p
                    elif f2 == 2:
                        keys = _packed(p)
                    elif f2 == 3:
                        vals = _packed(p)
                    elif f2 == 8:
                        drefs = _packed(p, signed=True)
                        acc = 0
                        for d in drefs:
                            acc += d
                            refs.append(acc)
                if wid is not None:
                    tags = {strings[k]: strings[x]
                            for k, x in zip(keys, vals)}
                    ways.append((wid, tags, refs))
    return nodes, ways


# The reference's extract filter (scripts/extract.sh:21-23) and field
# list (scripts/osmconf.ini:28): roads/waterways/coastlines.
LINE_FIELDS = ("name", "highway", "natural", "waterway")


def _lines_filter(tags: dict) -> bool:
    return (tags.get("highway") is not None
            or tags.get("waterway") is not None
            or tags.get("natural") == "coastline")


def parse_pbf_lines(path: str) -> pa.Table:
    """One .osm.pbf file → lines table (osm_id, name, highway,
    natural, waterway, geometry WKB LineString) under the reference's
    extract filter.  Runs inside one Ray task (see module docstring
    for the scale rationale)."""
    with open(path, "rb") as f:
        raw = f.read()
    nodes: dict[int, tuple[float, float]] = {}
    all_ways = []
    for btype, data in _iter_blobs(raw):
        if btype != "OSMData":
            continue
        n, w = _parse_block(data)
        nodes.update(n)
        all_ways.extend(w)
    cols: dict[str, list] = {k: [] for k in
                             ("osm_id", *LINE_FIELDS)}
    geoms: list[bytes | None] = []
    for wid, tags, refs in all_ways:
        if not _lines_filter(tags):
            continue
        pts = [nodes[r] for r in refs if r in nodes]
        if len(pts) < 2:
            continue
        cols["osm_id"].append(str(wid))
        for k in LINE_FIELDS:
            cols[k].append(tags.get(k))
        geoms.append(wkb.linestring(np.asarray(pts, dtype=np.float64)))
    return pa.table({
        "osm_id": pa.array(cols["osm_id"], type=pa.string()),
        **{k: pa.array(cols[k], type=pa.string())
           for k in LINE_FIELDS},
        "geometry": pa.array(geoms, type=pa.binary())})


def read_osm_pbf(paths):
    """Ray Dataset source over .osm.pbf files: one task per file
    (Geofabrik per-region extracts ⇒ file parallelism = region
    parallelism, the reference's own parallel axis)."""
    import ray.data as rd

    if isinstance(paths, str):
        paths = [paths]
    files = sorted(paths)

    def load(t: pa.Table) -> pa.Table:
        out = [parse_pbf_lines(f) for f in t["file"].to_pylist()]
        return pa.concat_tables(out) if out else pa.table({})

    return rd.from_arrow(pa.table({"file": pa.array(files)})) \
        .repartition(max(len(files), 1)) \
        .map_batches(load, batch_format="pyarrow")


# ------------------------------------------------------------- test writer

def write_osm_pbf(path: str, nodes: dict, ways: list,
                  compress: bool = True) -> str:
    """Minimal OSMData writer so tests exercise REAL files:
    ``nodes`` = {id: (lon, lat)}, ``ways`` = [(id, tags, refs)].
    Emits one OSMHeader + one OSMData blob (dense nodes + ways),
    zlib-compressed when ``compress``."""
    strings = [""]                           # index 0 unused by convention
    sidx: dict[str, int] = {}

    def s(x: str) -> int:
        if x not in sidx:
            sidx[x] = len(strings)
            strings.append(x)
        return sidx[x]

    # dense nodes, delta-coded at granularity 100
    ids = sorted(nodes)
    did = b"".join(_ezz(b - a) for a, b in
                   zip([0] + ids[:-1], ids))
    lat_i = [int(round(nodes[i][1] / 1e-9 / 100)) for i in ids]
    lon_i = [int(round(nodes[i][0] / 1e-9 / 100)) for i in ids]
    dlat = b"".join(_ezz(b - a) for a, b in
                    zip([0] + lat_i[:-1], lat_i))
    dlon = b"".join(_ezz(b - a) for a, b in
                    zip([0] + lon_i[:-1], lon_i))
    dense = _ld(1, did) + _ld(8, dlat) + _ld(9, dlon)
    group = _ld(2, dense)
    for wid, tags, refs in ways:
        body = _tag(1, 0) + _ev(wid)
        keys = b"".join(_ev(s(k)) for k in tags)
        vals = b"".join(_ev(s(v)) for v in tags.values())
        body += _ld(2, keys) + _ld(3, vals)
        drefs = b"".join(_ezz(b - a) for a, b in
                         zip([0] + list(refs)[:-1], refs))
        body += _ld(8, drefs)
        group += _ld(3, body)
    st = b"".join(_ld(1, x.encode()) for x in strings)
    block = _ld(1, st) + _ld(2, group) \
        + _tag(17, 0) + _ev(100)

    def frame(btype: bytes, payload: bytes) -> bytes:
        if compress:
            blob = (_tag(2, 0) + _ev(len(payload))
                    + _ld(3, zlib.compress(payload)))
        else:
            blob = _ld(1, payload)
        hdr = _ld(1, btype) + _tag(3, 0) + _ev(len(blob))
        return struct.pack(">i", len(hdr)) + hdr + blob

    header_block = _ld(4, b"DenseNodes")     # required_features
    with open(path, "wb") as f:
        f.write(frame(b"OSMHeader", header_block))
        f.write(frame(b"OSMData", block))
    return path
