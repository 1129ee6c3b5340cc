"""Vectorized S2 cell-id encoding (NumPy), from the published S2 geometry
algorithm (s2geometry.io; quadratic S↔T projection, Hilbert curve over cube
faces). This is the engine's tiling axis — the graft analogue of prclz's
GADM file-sharding (SURVEY §1.5): every geometry gets a ``cell: uint64``
partition key at LEVEL (default 14).

Implements:
  lnglat → XYZ → (face,u,v) → (s,t) → (i,j) → Hilbert position → cell id
  cell id → face/i/j → center lnglat (for ring expansion / debugging)
  parent/child prefix relations, same-face ij neighbor rings
  bbox covering for a whole batch of boxes in one pass (``cover_bboxes``)

The Hilbert traversal uses the standard 2-bit state machine with lookup
tables generated from the canonical order/orientation recurrence — no
third-party S2 code is imported. As in the S2 library, the codec walks 4
levels per step through a 1,024-entry table keyed on (orientation, 4 bits
of i, 4 bits of j) that gives 8 bits of Hilbert position and the next
orientation; the inverse table maps (orientation, 8 position bits) back to
4 bits of i and j. i and j are padded from 30 to 32 levels, so 8 steps
reach the leaf. A level-``level`` cell id keeps only the top ``level``
levels of the position (the rest is cleared and the trailing 1 bit marks
the level), so the encoder walks only the top ⌈level/4⌉ steps: 4 at the
default level 14 instead of 30 single-level steps.
"""
from __future__ import annotations

import numpy as np

MAX_LEVEL = 30
DEFAULT_LEVEL = 14

# Hilbert state machine: position-in-parent (0..3) given (orientation, ij),
# and next orientation. Orientations encode swap|invert bits as in the
# published algorithm.
_SWAP, _INVERT = 1, 2
# canonical traversal order of sub-cells in (i,j) for orientation 0: the
# Hilbert "U" order (0,0) (0,1) (1,1) (1,0)
_POS_OF_IJ = np.zeros((4, 4), dtype=np.uint8)   # [orientation][ij] -> pos
_NEXT_ORIENT = np.zeros((4, 4), dtype=np.uint8)  # [orientation][pos] -> orientation
_base_ij_of_pos = (0b00, 0b01, 0b11, 0b10)
_base_orient_of_pos = (_SWAP, 0, 0, _INVERT | _SWAP)
for _o in range(4):
    for _p in range(4):
        ij = _base_ij_of_pos[_p]
        if _o & _SWAP:
            ij = ((ij & 1) << 1) | (ij >> 1)
        if _o & _INVERT:
            ij ^= 3
        _POS_OF_IJ[_o, ij] = _p
        _NEXT_ORIENT[_o, _p] = _base_orient_of_pos[_p] ^ _o

# 4-level tables (the S2 library's lookup_pos / lookup_ij); i and j are
# padded from 30 to 32 levels, so 8 steps of 4 levels reach the leaf:
#   _LOOKUP_POS[orient << 8 | i4 << 4 | j4] = pos8 << 2 | next_orient
#   _LOOKUP_IJ[orient << 8 | pos8]         = i4 << 6 | j4 << 2 | next_orient
_PAD = 32 - MAX_LEVEL
_LOOKUP_POS = np.zeros(1024, dtype=np.uint64)
_LOOKUP_IJ = np.zeros(1024, dtype=np.uint64)
for _o in range(4):
    for _i4 in range(16):
        for _j4 in range(16):
            _orient, _pos8 = _o, 0
            for _b in range(3, -1, -1):
                _p = int(_POS_OF_IJ[_orient, ((_i4 >> _b) & 1) << 1 | ((_j4 >> _b) & 1)])
                _pos8 = _pos8 << 2 | _p
                _orient = int(_NEXT_ORIENT[_orient, _p])
            _LOOKUP_POS[_o << 8 | _i4 << 4 | _j4] = _pos8 << 2 | _orient
            _LOOKUP_IJ[_o << 8 | _pos8] = _i4 << 6 | _j4 << 2 | _orient


def lnglat_to_xyz(lng_deg, lat_deg):
    lng = np.radians(np.asarray(lng_deg, dtype=np.float64))
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    cos_lat = np.cos(lat)
    return np.cos(lng) * cos_lat, np.sin(lng) * cos_lat, np.sin(lat)


def xyz_to_face_uv(x, y, z):
    ax, ay, az = np.abs(x), np.abs(y), np.abs(z)
    face = np.where(ax >= ay,
                    np.where(ax >= az, 0, 2),
                    np.where(ay >= az, 1, 2))
    # major-axis sign: faces 3,4,5 are the negative axes
    major = np.choose(face, [x, y, z])
    face = np.where(major < 0, face + 3, face).astype(np.int64)
    u = np.empty_like(np.asarray(x, dtype=np.float64))
    v = np.empty_like(u)
    for f in range(6):
        m = face == f
        if not np.any(m):
            continue
        xf, yf, zf = x[m], y[m], z[m]
        if f == 0:
            u[m], v[m] = yf / xf, zf / xf
        elif f == 1:
            u[m], v[m] = -xf / yf, zf / yf
        elif f == 2:
            u[m], v[m] = -xf / zf, -yf / zf
        elif f == 3:
            u[m], v[m] = zf / xf, yf / xf
        elif f == 4:
            u[m], v[m] = zf / yf, -xf / yf
        else:
            u[m], v[m] = -yf / zf, -xf / zf
    return face, u, v


def uv_to_st(u):
    u = np.asarray(u, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        return np.where(u >= 0, 0.5 * np.sqrt(1 + 3 * u), 1 - 0.5 * np.sqrt(np.abs(1 - 3 * u)))


def st_to_ij(s):
    return np.clip((np.asarray(s) * (1 << MAX_LEVEL)).astype(np.int64), 0, (1 << MAX_LEVEL) - 1)


def face_ij_to_cellid(face, i, j, level=DEFAULT_LEVEL):
    """Hilbert-encode (face,i,j) to level-``level`` cell ids: walk the top
    ``level`` levels 4 at a time through ``_LOOKUP_POS``, then truncate."""
    face = np.asarray(face, dtype=np.uint64)
    # as uint64 the values keep their low 30 bits, all the encoder reads
    i = np.asarray(i, dtype=np.int64).astype(np.uint64) << np.uint64(_PAD)
    j = np.asarray(j, dtype=np.int64).astype(np.uint64) << np.uint64(_PAD)
    # odd faces start with the swap bit set (canonical S2: face & SWAP_MASK)
    orient = face & np.uint64(_SWAP)
    n = np.zeros(np.broadcast(face, i, j).shape, dtype=np.uint64)
    steps = -(-min(level, MAX_LEVEL) // 4)   # the top ⌈level/4⌉ of 8 steps
    for k in range(steps):
        shift = np.uint64(28 - 4 * k)          # k-th nibble from the top
        v = _LOOKUP_POS[(orient << np.uint64(8))
                        | (((i >> shift) & np.uint64(15)) << np.uint64(4))
                        | ((j >> shift) & np.uint64(15))]
        n = (n << np.uint64(8)) | (v >> np.uint64(2))
        orient = v & np.uint64(3)
    # n holds the top 4·steps levels; place them as the 30-level position
    walked = 4 * steps
    if walked <= MAX_LEVEL:
        n = n << np.uint64(2 * (MAX_LEVEL - walked))
    else:
        n = n >> np.uint64(2 * (walked - MAX_LEVEL))
    full = (face << np.uint64(2 * MAX_LEVEL + 1)) | (n << np.uint64(1)) | np.uint64(1)
    if level >= MAX_LEVEL:
        return full
    lsb = np.uint64(1) << np.uint64(2 * (MAX_LEVEL - level))
    return (full & ~(lsb - np.uint64(1)) & ~lsb) | lsb


def lnglat_to_cellid(lng_deg, lat_deg, level=DEFAULT_LEVEL) -> np.ndarray:
    """Main entry: vectorized lng/lat arrays → uint64 S2 cell ids."""
    x, y, z = lnglat_to_xyz(lng_deg, lat_deg)
    x = np.atleast_1d(x); y = np.atleast_1d(y); z = np.atleast_1d(z)
    face, u, v = xyz_to_face_uv(x, y, z)
    i = st_to_ij(uv_to_st(u))
    j = st_to_ij(uv_to_st(v))
    return face_ij_to_cellid(face, i, j, level)


def cellid_level(cid: np.ndarray) -> np.ndarray:
    cid = np.asarray(cid, dtype=np.uint64)
    lsb = cid & (~cid + np.uint64(1))
    return (MAX_LEVEL - (np.round(np.log2(lsb.astype(np.float64))) / 2).astype(np.int64)).astype(np.int64)


def cellid_to_face_ij(cid, level=DEFAULT_LEVEL):
    """Decode a cell id back to (face, i, j) of its min-corner leaf at
    MAX_LEVEL resolution (center of cell for ring math): 8 steps of 4
    levels through ``_LOOKUP_IJ``."""
    cid = np.asarray(cid, dtype=np.uint64)
    face = cid >> np.uint64(2 * MAX_LEVEL + 1)
    n = ((cid >> np.uint64(1)) & ((np.uint64(1) << np.uint64(2 * MAX_LEVEL)) - np.uint64(1))) \
        << np.uint64(2 * _PAD)
    orient = face & np.uint64(_SWAP)
    i = np.zeros(cid.shape, dtype=np.uint64)
    j = np.zeros(cid.shape, dtype=np.uint64)
    for k in range(8):
        shift = np.uint64(56 - 8 * k)          # k-th byte from the top
        v = _LOOKUP_IJ[(orient << np.uint64(8)) | ((n >> shift) & np.uint64(255))]
        i = (i << np.uint64(4)) | (v >> np.uint64(6))
        j = (j << np.uint64(4)) | ((v >> np.uint64(2)) & np.uint64(15))
        orient = v & np.uint64(3)
    return (face.astype(np.int64), (i >> np.uint64(_PAD)).astype(np.int64),
            (j >> np.uint64(_PAD)).astype(np.int64))


def cell_center_lnglat(cid, level=DEFAULT_LEVEL):
    face, i, j = cellid_to_face_ij(cid)
    # center of the level-cell: zero out trailing ij bits, add half step
    shift = MAX_LEVEL - level
    step = 1 << shift
    i = (i >> shift << shift) + step // 2
    j = (j >> shift << shift) + step // 2
    s = (i.astype(np.float64) + 0.5) / (1 << MAX_LEVEL)
    t = (j.astype(np.float64) + 0.5) / (1 << MAX_LEVEL)
    u = _st_to_uv(s)
    v = _st_to_uv(t)
    x, y, z = _face_uv_to_xyz(face, u, v)
    lng = np.degrees(np.arctan2(y, x))
    lat = np.degrees(np.arctan2(z, np.sqrt(x * x + y * y)))
    return lng, lat


def _st_to_uv(s):
    s = np.asarray(s, dtype=np.float64)
    return np.where(s >= 0.5, (1.0 / 3.0) * (4 * s * s - 1), (1.0 / 3.0) * (1 - 4 * (1 - s) * (1 - s)))


def _face_uv_to_xyz(face, u, v):
    face = np.asarray(face)
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    x = np.empty_like(u); y = np.empty_like(u); z = np.empty_like(u)
    specs = {
        0: lambda u, v: (np.ones_like(u), u, v),
        1: lambda u, v: (-u, np.ones_like(u), v),
        2: lambda u, v: (-u, -v, np.ones_like(u)),
        3: lambda u, v: (-np.ones_like(u), -v, -u),
        4: lambda u, v: (v, -np.ones_like(u), -u),
        5: lambda u, v: (v, u, -np.ones_like(u)),
    }
    for f, fn in specs.items():
        m = face == f
        if np.any(m):
            x[m], y[m], z[m] = fn(u[m], v[m])
    return x, y, z


_MAX_SAMPLES_PER_SIDE = 384


def cover_bbox(minx: float, miny: float, maxx: float, maxy: float,
               level=DEFAULT_LEVEL, margin: int = 1) -> np.ndarray:
    """Sorted cell ids covering one lon/lat bbox: the one-box call of
    ``cover_bboxes``."""
    return cover_bboxes(np.array([[minx, miny, maxx, maxy]]), level, margin)[1]


def cover_bboxes(boxes, level=DEFAULT_LEVEL, margin: int = 1):
    """Cell ids covering each lon/lat bbox of an ``(n, 4)`` array of
    (minx, miny, maxx, maxy), in one vectorized pass over the whole batch.
    Returns ``(poly_idx, cells)``: one row per (box, covering cell), sorted
    by box index, then cell id.

    Dense grid sampling at sub-cell spacing (every level-``level`` cell
    intersecting a box contains or adjoins a sample), then a
    ``margin``-ring dilation — exact across face boundaries, which cut
    diagonally through mid-latitudes. Each box's grid takes the values
    ``np.linspace`` would give it, so the cells do not depend on how boxes
    are batched.

    Sampling count scales with (box span / cell size): a box that needs
    more than 384 samples per side (a span of ~255 × 90/2^level degrees)
    raises ``ValueError`` — pip_join_tiled's contract is polygons small
    relative to the tile level (SURVEY custom-operator rule); pick a
    coarser level for bigger geometries."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    minx, miny, maxx, maxy = boxes.T
    cell_deg = 90.0 / (1 << level)  # conservative min cell extent in degrees
    with np.errstate(invalid="ignore"):
        kx = np.ceil((maxx - minx) / cell_deg * 1.5) + 1
        ky = np.ceil((maxy - miny) / cell_deg * 1.5) + 1
    k = np.maximum(kx, ky)
    if not np.isfinite(k).all():
        raise ValueError("cover_bbox: a box has a non-finite bound")
    if (k > _MAX_SAMPLES_PER_SIDE).any():
        raise ValueError(
            f"cover_bbox: box spans ~{int(k[k > _MAX_SAMPLES_PER_SIDE][0])} "
            f"level-{level} cells per side; use a coarser level for "
            "geometries this large")
    nx = np.maximum(kx, 2).astype(np.int64)
    ny = np.maximum(ky, 2).astype(np.int64)
    # every box's nx × ny sample grid, row-major, tagged with its box index
    per_box = nx * ny
    poly = np.repeat(np.arange(len(boxes)), per_box)
    local = np.arange(len(poly)) - np.repeat(np.cumsum(per_box) - per_box, per_box)
    row, col = np.divmod(local, nx[poly])
    xs = _linspace_at(minx, maxx, nx, poly, col)
    ys = _linspace_at(miny, maxy, ny, poly, row)
    face, u, v = xyz_to_face_uv(*lnglat_to_xyz(xs, ys))
    shift = MAX_LEVEL - level
    ci = st_to_ij(uv_to_st(u)) >> shift
    cj = st_to_ij(uv_to_st(v)) >> shift
    # drop duplicate (box, face, i, j) samples; the packed key fits 63 bits
    poly, key = _unique_pairs(poly, (face << (2 * level)) | (ci << level) | cj)
    mask = (1 << level) - 1
    face, ci, cj = key >> (2 * level), (key >> level) & mask, key & mask
    src, cells = _ring_cells(face, ci, cj, level, max(margin, 0))
    return _unique_pairs(poly[src], cells)


def _linspace_at(lo, hi, num, poly, k):
    """Element ``k`` of ``np.linspace(lo[p], hi[p], num[p])`` for each box
    ``p = poly``, with linspace's arithmetic (including its step == 0
    branch and its exact last point)."""
    div = (num - 1).astype(np.float64)[poly]
    start = lo[poly]
    delta = hi[poly] - start
    step = delta / div
    kf = k.astype(np.float64)
    y = np.where(step == 0, kf / div * delta, kf * step) + start
    return np.where(k == num[poly] - 1, hi[poly], y)


def _unique_pairs(a, b):
    """Distinct (a, b) pairs, sorted by a then b."""
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return a[keep], b[keep]


def _ring_cells(face, ci, cj, level, ring):
    """Level-``level`` cell ids of the (2r+1)² same-face ij-neighborhood of
    each input cell (face, ci, cj), in one encode call. Returns
    ``(src, cells)``: the input row of each neighbor, and its id."""
    d = np.arange(-ring, ring + 1)
    ni = (np.atleast_1d(ci)[:, None] + np.repeat(d, len(d))).ravel()
    nj = (np.atleast_1d(cj)[:, None] + np.tile(d, len(d))).ravel()
    src = np.repeat(np.arange(np.size(ci)), len(d) ** 2)
    lim = 1 << level
    ok = (ni >= 0) & (ni < lim) & (nj >= 0) & (nj < lim)
    src, shift = src[ok], MAX_LEVEL - level
    return src, face_ij_to_cellid(np.atleast_1d(face)[src], ni[ok] << shift,
                                  nj[ok] << shift, level)


def cell_neighbors_same_face(cid, level=DEFAULT_LEVEL, ring=1) -> np.ndarray:
    """Cell ids of the (2r+1)² ij-neighborhood on the same face (used for
    kNN cell-ring expansion; cross-face neighbors are out of scope for the
    synthetic corpora, documented limitation)."""
    face, i, j = cellid_to_face_ij(cid)
    shift = MAX_LEVEL - level
    return np.unique(_ring_cells(face, i >> shift, j >> shift, level, ring)[1])
