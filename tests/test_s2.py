"""S2 codec and batch covering against the earlier per-level bit loop and
per-box cover, kept here verbatim as references: every cell id must be
bit-identical at every level, and ``cover_bboxes`` must give each box
exactly the cell set the per-box cover gave it."""
import numpy as np
import pytest

from prclz_ray.index import s2
from prclz_ray.index.s2 import (_NEXT_ORIENT, _POS_OF_IJ, _SWAP, DEFAULT_LEVEL,
                                MAX_LEVEL, lnglat_to_xyz, st_to_ij, uv_to_st,
                                xyz_to_face_uv)

# [orientation][pos] -> ij, the inverse of _POS_OF_IJ, for the bit-loop decoder
_IJ_OF_POS = np.argsort(_POS_OF_IJ, axis=1).astype(np.uint8)

# ---------------------------------------------------------------- references


def ref_face_ij_to_cellid(face, i, j, level=DEFAULT_LEVEL):
    """Hilbert-encode (face,i,j) at MAX_LEVEL, then truncate to ``level``."""
    face = np.asarray(face, dtype=np.uint64)
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    n = np.zeros(face.shape, dtype=np.uint64)
    orient = np.where(face % np.uint64(2) == 1, np.uint8(_SWAP), np.uint8(0)).astype(np.uint8)
    for k in range(MAX_LEVEL - 1, -1, -1):
        ib = ((i >> k) & 1).astype(np.uint8)
        jb = ((j >> k) & 1).astype(np.uint8)
        ij = (ib << 1) | jb
        pos = _POS_OF_IJ[orient, ij]
        n = (n << np.uint64(2)) | pos.astype(np.uint64)
        orient = _NEXT_ORIENT[orient, pos]
    full = (face << np.uint64(2 * MAX_LEVEL + 1)) | (n << np.uint64(1)) | np.uint64(1)
    if level >= MAX_LEVEL:
        return full
    lsb = np.uint64(1) << np.uint64(2 * (MAX_LEVEL - level))
    return (full & ~(lsb - np.uint64(1)) & ~lsb) | lsb


def ref_cellid_to_face_ij(cid, level=DEFAULT_LEVEL):
    cid = np.asarray(cid, dtype=np.uint64)
    face = (cid >> np.uint64(2 * MAX_LEVEL + 1)).astype(np.int64)
    n = (cid >> np.uint64(1)) & ((np.uint64(1) << np.uint64(2 * MAX_LEVEL)) - np.uint64(1))
    orient = np.where(face % 2 == 1, np.uint8(_SWAP), np.uint8(0)).astype(np.uint8)
    i = np.zeros(cid.shape, dtype=np.int64)
    j = np.zeros(cid.shape, dtype=np.int64)
    for k in range(MAX_LEVEL - 1, -1, -1):
        pos = ((n >> np.uint64(2 * k)) & np.uint64(3)).astype(np.uint8)
        ij = _IJ_OF_POS[orient, pos]
        i = (i << 1) | (ij >> 1)
        j = (j << 1) | (ij & 1)
        orient = _NEXT_ORIENT[orient, pos]
    return face, i, j


def ref_cell_neighbors_same_face(cid, level=DEFAULT_LEVEL, ring=1):
    face, i, j = ref_cellid_to_face_ij(cid)
    shift = MAX_LEVEL - level
    ci = np.atleast_1d(i >> shift).astype(np.int64)
    cj = np.atleast_1d(j >> shift).astype(np.int64)
    face = np.atleast_1d(face)
    out = []
    lim = 1 << level
    for di in range(-ring, ring + 1):
        for dj in range(-ring, ring + 1):
            ni, nj = ci + di, cj + dj
            ok = (ni >= 0) & (ni < lim) & (nj >= 0) & (nj < lim)
            if ok.any():
                out.append(ref_face_ij_to_cellid(
                    face[ok], (ni[ok] << shift).astype(np.uint64),
                    (nj[ok] << shift).astype(np.uint64), level))
    return np.unique(np.concatenate([np.atleast_1d(o) for o in out]))


def ref_cover_bbox(minx, miny, maxx, maxy, level=DEFAULT_LEVEL, margin=1):
    cell_deg = 90.0 / (1 << level)
    kx = int(np.ceil((maxx - minx) / cell_deg * 1.5)) + 1
    ky = int(np.ceil((maxy - miny) / cell_deg * 1.5)) + 1
    if max(kx, ky) > 384:
        raise ValueError(
            f"cover_bbox: box spans ~{max(kx, ky)} level-{level} cells per "
            "side; use a coarser level for geometries this large")
    gx = np.linspace(minx, maxx, max(kx, 2))
    gy = np.linspace(miny, maxy, max(ky, 2))
    xs, ys = np.meshgrid(gx, gy)
    x, y, z = lnglat_to_xyz(xs.ravel(), ys.ravel())
    face, u, v = xyz_to_face_uv(np.atleast_1d(x), np.atleast_1d(y),
                                np.atleast_1d(z))
    shift = MAX_LEVEL - level
    i = (st_to_ij(uv_to_st(u)) >> shift) << shift
    j = (st_to_ij(uv_to_st(v)) >> shift) << shift
    cids = np.unique(ref_face_ij_to_cellid(face, i, j, level))
    if margin > 0:
        cids = np.unique(
            ref_cell_neighbors_same_face(cids, level, ring=margin).ravel())
    return cids


# ---------------------------------------------------------------- inputs


def _face_ij(seed, n=5_000):
    rng = np.random.default_rng(seed)
    top = (1 << MAX_LEVEL) - 1
    face = np.concatenate([rng.integers(0, 6, n), np.repeat(np.arange(6), 4)])
    i = np.concatenate([rng.integers(0, top + 1, n), np.tile([0, 0, top, top], 6)])
    j = np.concatenate([rng.integers(0, top + 1, n), np.tile([0, top, 0, top], 6)])
    return face, i, j


def _boxes(seed, level, n):
    """Seeded boxes a few cells wide: a quarter anywhere, the rest
    straddling cube-face edges (lng ±45°/±135° at the equator, lat ±45° at
    lng 0, and the face corners at lat ±35.26° on lng ±45°/±135°); one in
    eight has zero width and one in eight zero height."""
    rng = np.random.default_rng([seed, level])
    cell = 90.0 / (1 << level)
    kind = rng.integers(0, 4, n)
    sign = rng.choice([-1.0, 1.0], n)
    edge_lng = rng.choice([-135.0, -45.0, 45.0, 135.0], n)
    jitter = lambda: rng.normal(0, 3 * cell, n)          # noqa: E731
    cx = np.select([kind == 0, kind == 1, kind == 2],
                   [rng.uniform(-179, 179, n), edge_lng + jitter(), jitter()],
                   edge_lng + jitter())
    cy = np.select([kind == 0, kind == 1, kind == 2],
                   [rng.uniform(-85, 85, n), rng.uniform(-30, 30, n),
                    sign * 45.0 + jitter()],
                   sign * 35.26 + jitter())
    w = rng.exponential(4 * cell, n)
    h = rng.exponential(4 * cell, n)
    flat = rng.integers(0, 8, n)
    w[flat == 0] = 0.0
    h[flat == 1] = 0.0
    return np.c_[cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2]


# ---------------------------------------------------------------- codec


@pytest.mark.parametrize("level", range(MAX_LEVEL + 1))
def test_encoder_matches_bit_loop_at_every_level(level):
    face, i, j = _face_ij(level)
    got = s2.face_ij_to_cellid(face, i, j, level)
    want = ref_face_ij_to_cellid(face, i, j, level)
    assert got.dtype == want.dtype == np.uint64
    np.testing.assert_array_equal(got, want)


def test_decoder_matches_bit_loop():
    face, i, j = _face_ij(99)
    for level in (0, 1, 7, 12, 14, 29, MAX_LEVEL):
        cid = ref_face_ij_to_cellid(face, i, j, level)
        for got, want in zip(s2.cellid_to_face_ij(cid),
                             ref_cellid_to_face_ij(cid)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("ring", [1, 2])
def test_neighbors_match_reference(ring):
    rng = np.random.default_rng(ring)
    for level in (8, 14):
        cid = s2.lnglat_to_cellid(rng.uniform(-180, 180, 400),
                                  rng.uniform(-89, 89, 400), level)
        np.testing.assert_array_equal(
            s2.cell_neighbors_same_face(cid, level, ring),
            ref_cell_neighbors_same_face(cid, level, ring))


# ---------------------------------------------------------------- covering


@pytest.mark.parametrize("level", [8, 10, 12, 14])
def test_cover_bboxes_matches_per_box_reference(level):
    boxes = _boxes(7, level, 2_500)
    poly, cells = s2.cover_bboxes(boxes, level)
    assert poly.dtype == np.int64 and cells.dtype == np.uint64
    assert (np.diff(poly) >= 0).all()
    starts = np.searchsorted(poly, np.arange(len(boxes) + 1))
    bad = [k for k, b in enumerate(boxes)
           if not np.array_equal(cells[starts[k]:starts[k + 1]],
                                 ref_cover_bbox(*b, level=level))]
    assert bad == [], f"{len(bad)} boxes differ, first {boxes[bad[0]]}"


@pytest.mark.parametrize("margin", [0, 2])
def test_cover_bboxes_other_margins(margin):
    boxes = _boxes(8, 12, 300)
    poly, cells = s2.cover_bboxes(boxes, 12, margin)
    for k, b in enumerate(boxes):
        np.testing.assert_array_equal(
            cells[poly == k], ref_cover_bbox(*b, level=12, margin=margin))


def test_cover_bbox_is_the_one_box_batch():
    for b in _boxes(9, 14, 50):
        got = s2.cover_bbox(*b, level=14)
        assert got.dtype == np.uint64
        np.testing.assert_array_equal(got, ref_cover_bbox(*b, level=14))


def test_cover_bboxes_empty_batch():
    poly, cells = s2.cover_bboxes(np.empty((0, 4)), 12)
    assert len(poly) == len(cells) == 0
    assert poly.dtype == np.int64 and cells.dtype == np.uint64


def test_oversize_box_in_batch_raises_like_cover_bbox():
    level = 12
    big = (0.0, 0.0, 260 * 90.0 / (1 << level), 0.01)
    boxes = np.vstack([_boxes(10, level, 5), big, _boxes(11, level, 5)])
    with pytest.raises(ValueError) as batch_err:
        s2.cover_bboxes(boxes, level)
    with pytest.raises(ValueError) as one_err:
        s2.cover_bbox(*big, level=level)
    with pytest.raises(ValueError) as ref_err:
        ref_cover_bbox(*big, level=level)
    assert str(batch_err.value) == str(one_err.value) == str(ref_err.value)
