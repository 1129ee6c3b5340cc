"""Minimal WKB / WKT codecs for the engine's geometry: binary columns in
Arrow tables hold ISO WKB (little-endian). Replaces the reference's
WKT-in-CSV / GeoJSON serialization (prclz ``utils.py:45-62``,
``_parcels.py:206-212``) with a Parquet-native binary encoding.

Geometry values in Python are plain numpy arrays / lists:
  Point            -> (2,) array
  LineString       -> (N,2) array
  Polygon          -> list[rings]; ring = closed (N,2) array (ring 0 exterior)
  MultiPoint       -> (N,2) array
  MultiLineString  -> list[(N,2) arrays]
  MultiPolygon     -> list[Polygon]
"""
from __future__ import annotations

import struct

import numpy as np

POINT, LINESTRING, POLYGON, MULTIPOINT, MULTILINESTRING, MULTIPOLYGON = 1, 2, 3, 4, 5, 6

_HDR = struct.Struct("<BI")
_U32 = struct.Struct("<I")
_PT = struct.Struct("<dd")


def _coords_bytes(coords: np.ndarray) -> bytes:
    a = np.ascontiguousarray(np.asarray(coords, dtype="<f8"))
    return _U32.pack(len(a)) + a.tobytes()


def point(x: float, y: float) -> bytes:
    return _HDR.pack(1, POINT) + _PT.pack(x, y)


def linestring(coords) -> bytes:
    return _HDR.pack(1, LINESTRING) + _coords_bytes(coords)


def polygon(rings) -> bytes:
    if isinstance(rings, np.ndarray):
        rings = [rings]
    from .core import ensure_closed
    body = _U32.pack(len(rings))
    for r in rings:
        body += _coords_bytes(ensure_closed(r))
    return _HDR.pack(1, POLYGON) + body


def multipoint(coords) -> bytes:
    a = np.asarray(coords, dtype=np.float64).reshape(-1, 2)
    body = _U32.pack(len(a))
    for x, y in a:
        body += point(x, y)
    return _HDR.pack(1, MULTIPOINT) + body


def multilinestring(lines) -> bytes:
    body = _U32.pack(len(lines))
    for ln in lines:
        body += linestring(ln)
    return _HDR.pack(1, MULTILINESTRING) + body


def multipolygon(polys) -> bytes:
    body = _U32.pack(len(polys))
    for p in polys:
        body += polygon(p)
    return _HDR.pack(1, MULTIPOLYGON) + body


def decode(buf: bytes):
    """Decode WKB → (type, value) with value per the module docstring."""
    t, val, off = _decode_at(buf, 0)
    return t, val


def _decode_at(buf: bytes, off: int):
    byte_order, t = _HDR.unpack_from(buf, off)
    assert byte_order == 1, "big-endian WKB not supported"
    off += _HDR.size
    t &= 0xFF
    if t == POINT:
        x, y = _PT.unpack_from(buf, off)
        return t, np.array([x, y]), off + 16
    if t in (LINESTRING, MULTIPOINT) and t == LINESTRING:
        n, = _U32.unpack_from(buf, off)
        off += 4
        a = np.frombuffer(buf, dtype="<f8", count=2 * n, offset=off).reshape(n, 2)
        return t, a.copy(), off + 16 * n
    if t == POLYGON:
        nr, = _U32.unpack_from(buf, off)
        off += 4
        rings = []
        for _ in range(nr):
            n, = _U32.unpack_from(buf, off)
            off += 4
            rings.append(np.frombuffer(buf, dtype="<f8", count=2 * n, offset=off).reshape(n, 2).copy())
            off += 16 * n
        return t, rings, off
    if t in (MULTIPOINT, MULTILINESTRING, MULTIPOLYGON):
        n, = _U32.unpack_from(buf, off)
        off += 4
        parts = []
        for _ in range(n):
            _, val, off = _decode_at(buf, off)
            parts.append(val)
        if t == MULTIPOINT:
            parts = np.array(parts).reshape(-1, 2) if parts else np.empty((0, 2))
        return t, parts, off
    raise ValueError(f"unsupported WKB type {t}")


def points_xy(wkb_col) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized decode of a column of WKB Points → (x, y) float64 arrays.
    Fast path: every buffer is exactly 21 bytes (header + 2 doubles)."""
    bufs = list(wkb_col)
    n = len(bufs)
    if n and all(len(b) == 21 for b in bufs):
        raw = np.frombuffer(b"".join(bufs), dtype=np.uint8).reshape(n, 21)
        xy = raw[:, 5:21].copy().view("<f8").reshape(n, 2)
        return xy[:, 0].copy(), xy[:, 1].copy()
    xs = np.empty(n)
    ys = np.empty(n)
    for i, b in enumerate(bufs):
        _, v = decode(b)
        c = np.asarray(v, dtype=np.float64).reshape(-1, 2)
        xs[i], ys[i] = c.mean(axis=0)
    return xs, ys


_POLY1_HDR = _HDR.pack(1, POLYGON) + _U32.pack(1)  # LE single-ring polygon


def polygon_centroids(wkb_col) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized shoelace centroids for a column of WKB buffers
    (ref M2, ``_complexity.py:104``: ``geometry.centroid`` over buildings).

    Fast path: every buffer a single-ring closed Polygon with the SAME
    vertex count (the common case for footprint tables) → one frombuffer +
    batched shoelace, no per-row Python. Mixed columns fall back to the
    scalar decode per row. Identical output to ``ring_centroid`` per row."""
    from .core import ring_centroid
    bufs = [b if isinstance(b, bytes) else b.as_py() for b in wkb_col]
    n = len(bufs)
    L = len(bufs[0]) if n else 0
    k = (L - 13) // 16
    if (n and k >= 3 and L == 13 + 16 * k
            and all(len(b) == L and b[:9] == _POLY1_HDR for b in bufs)):
        raw = np.frombuffer(b"".join(bufs), dtype=np.uint8).reshape(n, L)
        r = raw[:, 13:].copy().view("<f8").reshape(n, k, 2)
        if np.array_equal(r[:, 0], r[:, -1]):  # closed rings → pure numpy
            x, y = r[:, :-1, 0], r[:, :-1, 1]
            x1, y1 = r[:, 1:, 0], r[:, 1:, 1]
            cross = x * y1 - x1 * y
            a2 = cross.sum(axis=1)
            good = np.abs(a2) >= 1e-12
            denom = np.where(good, 3.0 * a2, 1.0)
            cx = ((x + x1) * cross).sum(axis=1) / denom
            cy = ((y + y1) * cross).sum(axis=1) / denom
            if not good.all():  # degenerate rings: vertex mean
                cx = np.where(good, cx, r[:, :-1, 0].mean(axis=1))
                cy = np.where(good, cy, r[:, :-1, 1].mean(axis=1))
            return cx, cy
    xs = np.empty(n)
    ys = np.empty(n)
    for i, b in enumerate(bufs):
        t, v = decode(b)
        ring = (v[0] if t == POLYGON
                else v[0][0] if t == MULTIPOLYGON else _all_coords(t, v))
        xs[i], ys[i] = ring_centroid(np.asarray(ring, dtype=np.float64))
    return xs, ys


def bboxes(wkb_col) -> np.ndarray:
    """Per-row bbox (minx, miny, maxx, maxy) for a column of WKB buffers."""
    out = np.empty((len(wkb_col), 4))
    for i, b in enumerate(wkb_col):
        t, v = decode(b)
        c = _all_coords(t, v)
        out[i, 0] = c[:, 0].min(); out[i, 1] = c[:, 1].min()
        out[i, 2] = c[:, 0].max(); out[i, 3] = c[:, 1].max()
    return out


def _all_coords(t, v) -> np.ndarray:
    if t == POINT:
        return np.asarray(v).reshape(1, 2)
    if t in (LINESTRING, MULTIPOINT):
        return np.asarray(v).reshape(-1, 2)
    if t == POLYGON:
        return np.vstack(v)
    if t == MULTILINESTRING:
        return np.vstack(v)
    if t == MULTIPOLYGON:
        return np.vstack([np.vstack(p) for p in v])
    raise ValueError(t)


def coords(buf: bytes) -> np.ndarray:
    t, v = decode(buf)
    return _all_coords(t, v)


# ---------------------------------------------------------------- WKT codec

def _fmt_coord(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _wkt_ring(c) -> str:
    return "(" + ", ".join(f"{_fmt_coord(p[0])} {_fmt_coord(p[1])}" for p in np.asarray(c)) + ")"


def to_wkt(buf: bytes) -> str:
    """WKT string (shapely-compatible number formatting for golden tests)."""
    t, v = decode(buf)
    if t == POINT:
        return f"POINT ({_fmt_coord(v[0])} {_fmt_coord(v[1])})"
    if t == LINESTRING:
        return "LINESTRING " + _wkt_ring(v)
    if t == POLYGON:
        return "POLYGON (" + ", ".join(_wkt_ring(r) for r in v) + ")"
    if t == MULTIPOINT:
        return "MULTIPOINT (" + ", ".join(f"({_fmt_coord(p[0])} {_fmt_coord(p[1])})" for p in v) + ")"
    if t == MULTILINESTRING:
        return "MULTILINESTRING (" + ", ".join(_wkt_ring(ln) for ln in v) + ")"
    if t == MULTIPOLYGON:
        return "MULTIPOLYGON (" + ", ".join("(" + ", ".join(_wkt_ring(r) for r in p) + ")" for p in v) + ")"
    raise ValueError(t)


def from_wkt(s: str) -> bytes:
    """Parse a WKT string → WKB (supports the six basic types)."""
    s = s.strip()
    head, _, rest = s.partition("(")
    head = head.strip().upper()
    body = "(" + rest

    def parse_coords(txt: str) -> np.ndarray:
        pts = [tuple(float(t) for t in chunk.split()) for chunk in txt.split(",")]
        return np.array(pts, dtype=np.float64)

    def split_parens(txt: str) -> list[str]:
        txt = txt.strip()
        assert txt[0] == "(" and txt[-1] == ")"
        txt = txt[1:-1]
        parts, depth, start = [], 0, 0
        for i, ch in enumerate(txt):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                parts.append(txt[start:i])
                start = i + 1
        parts.append(txt[start:])
        return [p.strip() for p in parts]

    if head == "POINT":
        c = parse_coords(body.strip()[1:-1])
        return point(c[0, 0], c[0, 1])
    if head == "LINESTRING":
        return linestring(parse_coords(body.strip()[1:-1]))
    if head == "POLYGON":
        return polygon([parse_coords(r.strip()[1:-1]) for r in split_parens(body)])
    if head == "MULTIPOINT":
        parts = split_parens(body)
        pts = [parse_coords(p.strip()[1:-1] if p.strip().startswith("(") else p) for p in parts]
        return multipoint(np.vstack(pts))
    if head == "MULTILINESTRING":
        return multilinestring([parse_coords(p.strip()[1:-1]) for p in split_parens(body)])
    if head == "MULTIPOLYGON":
        return multipolygon([[parse_coords(r.strip()[1:-1]) for r in split_parens(p)]
                             for p in split_parens(body)])
    raise ValueError(f"unsupported WKT: {head}")
