"""Codecs (CSV-with-WKT, GeoJSON), CRS reproject, normalizers."""
import json
import os

import numpy as np
import pyarrow as pa
import pytest

from prclz_ray.geom import crs, wkb
from prclz_ray.io import codecs
from prclz_ray.stages import normalize

TMP = "/tmp/prclz_ray_test_codecs"


def setup_module():
    os.makedirs(TMP, exist_ok=True)


def test_csv_wkt_roundtrip():
    import ray.data as rd
    ring = np.array([(0, 0), (2, 0), (2, 2), (0, 2), (0, 0)], dtype=float)
    tbl = pa.table({
        "block_id": ["b1", "b2"],
        "geometry": pa.array([wkb.polygon(ring), wkb.point(1.5, 2.5)],
                             type=pa.binary()),
    })
    out_dir = f"{TMP}/csv_out"
    import shutil
    shutil.rmtree(out_dir, ignore_errors=True)
    codecs.write_csv_wkt(rd.from_arrow(tbl), out_dir)

    back = codecs.read_csv_wkt(out_dir, unique_col="block_id").to_pandas()
    back = back.sort_values("block_id").reset_index(drop=True)
    t, v = wkb.decode(back["geometry"][0])
    assert t == wkb.POLYGON
    np.testing.assert_allclose(v[0], ring)
    t2, v2 = wkb.decode(back["geometry"][1])
    assert t2 == wkb.POINT and tuple(v2) == (1.5, 2.5)


def test_csv_wkt_uniqueness_check():
    import ray.data as rd
    tbl = pa.table({"block_id": ["b1", "b1"],
                    "geometry": pa.array([wkb.point(0, 0)] * 2,
                                         type=pa.binary())})
    out_dir = f"{TMP}/csv_dup"
    import shutil
    shutil.rmtree(out_dir, ignore_errors=True)
    codecs.write_csv_wkt(rd.from_arrow(tbl), out_dir)
    with pytest.raises(ValueError, match="duplicate"):
        codecs.read_csv_wkt(out_dir, unique_col="block_id").to_pandas()


def test_geojson_roundtrip():
    path = f"{TMP}/x.geojson"
    if os.path.exists(path):
        os.remove(path)
    fc = {"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {"name": "sq"},
         "geometry": {"type": "Polygon",
                      "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]]}},
        {"type": "Feature", "properties": {"name": "pt"},
         "geometry": {"type": "Point", "coordinates": [3.0, 4.0]}},
    ]}
    with open(path, "w") as f:
        json.dump(fc, f)
    ds = codecs.read_geojson(path)
    df = ds.to_pandas().sort_values("name").reset_index(drop=True)
    assert list(df["name"]) == ["pt", "sq"]
    t, v = wkb.decode(df["geometry"][0])
    assert t == wkb.POINT and tuple(v) == (3.0, 4.0)

    out = f"{TMP}/y.geojson"
    if os.path.exists(out):
        os.remove(out)
    codecs.write_geojson(ds, out)
    codecs.write_geojson(ds, out)  # append-merge
    with open(out) as f:
        merged = json.load(f)
    assert len(merged["features"]) == 4


def test_mercator_roundtrip():
    lng = np.array([-120.0, 0.0, 15.5, 179.0])
    lat = np.array([-60.0, 0.0, 45.0, 80.0])
    x, y = crs.lnglat_to_mercator(lng, lat)
    # EPSG:3395 reference value for (0°, 45°): y ≈ 5591295.9 m
    assert abs(x[1]) < 1e-6 and abs(y[1]) < 1e-6
    assert abs(y[2] - 5591295.9) < 200
    lng2, lat2 = crs.mercator_to_lnglat(x, y)
    np.testing.assert_allclose(lng2, lng, atol=1e-9)
    np.testing.assert_allclose(lat2, lat, atol=1e-9)


def test_parse_ona_text():
    txt = "10.0 20.0 0 5; 10.0 21.0 0 5; 11.0 21.0 0 5; 10.0 20.0 0 5"
    buf = normalize.parse_ona_text(txt)
    t, rings = wkb.decode(buf)
    assert t == wkb.POLYGON
    # lng = second field, lat = first
    np.testing.assert_allclose(rings[0][0], [20.0, 10.0])
    assert normalize.parse_ona_text("1 2") is None


def test_clean_gadm_cols():
    batch = pa.table({
        "GID_0": ["DJI", "DJI"],
        "GID_1": ["DJI.1_1", "DJI.2_1"],
        "GID_2": ["DJI.1.1_1", "DJI.2.1_1"],
        "geometry": pa.array([wkb.point(0, 0)] * 2, type=pa.binary()),
    })
    out = normalize.clean_gadm_cols(batch)
    assert out.column_names == ["geometry", "gadm_code", "gadm"]
    assert out["gadm_code"].to_pylist() == ["DJI.1.1_1", "DJI.2.1_1"]
    assert out["gadm"].to_pylist() == ["DJI", "DJI"]
    out1 = normalize.clean_gadm_cols(batch, target_level=1)
    assert out1["gadm_code"].to_pylist() == ["DJI.1_1", "DJI.2_1"]


def test_jsonl_roundtrip_preserves_rows_and_schema(tmp_path):
    import pyarrow as pa
    import ray.data as rd

    from prclz_ray.io import codecs

    t = pa.table({
        "doc_id": pa.array([3, 1, 2], type=pa.int64()),
        "text": pa.array(["a b", "c\"d", "unicode é"]),
        "n": pa.array([1.5, 2.0, -3.25])})
    out = str(tmp_path / "jl")
    codecs.write_jsonl(rd.from_arrow(t), out)
    back = codecs.read_jsonl(out).to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)
    exp = t.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert back[["doc_id", "text", "n"]].equals(exp)


def test_ipc_roundtrip_content_identity():
    import pandas as pd
    import ray.data as rd

    from prclz_ray.io import codecs

    df = pd.DataFrame({"a": [1, 2, 3, 4], "b": ["x", "y", "", "z"],
                       "c": [1.5, None, 0.0, -2.25]})
    out = "/tmp/prclz_ray_test_ipc"
    import shutil
    shutil.rmtree(out, ignore_errors=True)
    manifest = codecs.write_ipc(rd.from_pandas(df).repartition(2), out)
    assert int(manifest.to_pandas()["rows"].sum()) == 4
    back = codecs.read_ipc(out).to_pandas() \
        .sort_values("a").reset_index(drop=True)
    pd.testing.assert_frame_equal(back, df.sort_values("a")
                                  .reset_index(drop=True))


# ------------------------------------------------------- ESRI shapefile

def test_shapefile_point_roundtrip(tmp_path):
    base = str(tmp_path / "pts")
    tbl = pa.table({
        "id": pa.array([1, 2, 3], type=pa.int64()),
        "long_column_name_x": pa.array(["alpha", "beta", "gamma"]),
        "score": pa.array([1.5, -2.25, 3.141592653589793]),
        "flag": pa.array([True, False, True]),
        "geometry": pa.array([wkb.point(1.0, 2.0),
                              wkb.point(-3.5, 4.25),
                              wkb.point(0.0, 0.0)],
                             type=pa.binary())})
    codecs.write_shapefile(tbl, base)
    assert os.path.exists(base + ".shp")
    assert os.path.exists(base + ".shx")
    assert os.path.exists(base + ".dbf")
    back = codecs.read_shapefile(base + ".shp").to_pandas() \
        .sort_values("id").reset_index(drop=True)
    # sidecar restores the >10-char name the DBF header truncated
    assert list(back["long_column_name_x"]) == ["alpha", "beta",
                                                "gamma"]
    assert list(back["score"]) == [1.5, -2.25, 3.141592653589793]
    assert list(back["flag"]) == [True, False, True]
    xs, ys = wkb.points_xy(list(back["geometry"]))
    assert list(xs) == [1.0, -3.5, 0.0]
    assert list(ys) == [2.0, 4.25, 0.0]


def test_shapefile_polygon_hole_and_line_roundtrip(tmp_path):
    from prclz_ray.geom.core import shoelace_area

    outer = np.array([[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]],
                     dtype=float)
    hole = np.array([[4, 4], [6, 4], [6, 6], [4, 6], [4, 4]],
                    dtype=float)
    base = str(tmp_path / "poly")
    codecs.write_shapefile(pa.table({
        "bid": pa.array([7], type=pa.int64()),
        "geometry": pa.array([wkb.polygon([outer, hole])],
                             type=pa.binary())}), base)
    b = codecs.read_shapefile(base + ".shp").to_pandas()
    kind, rings = wkb.decode(b["geometry"][0])
    assert kind == wkb.POLYGON and len(rings) == 2
    # engine convention restored: exterior CCW (+), hole CW (−)
    assert shoelace_area(np.asarray(rings[0])) == 100.0
    assert shoelace_area(np.asarray(rings[1])) == -4.0

    line = np.array([[0, 0], [5, 5], [10, 0]], dtype=float)
    lbase = str(tmp_path / "line")
    codecs.write_shapefile(pa.table({
        "lid": pa.array([1], type=pa.int64()),
        "geometry": pa.array([wkb.linestring(line)],
                             type=pa.binary())}), lbase)
    lb = codecs.read_shapefile(lbase + ".shp").to_pandas()
    k2, coords = wkb.decode(lb["geometry"][0])
    assert k2 == wkb.LINESTRING
    assert np.array_equal(np.asarray(coords), line)


def test_shapefile_multipolygon_roundtrip(tmp_path):
    a = np.array([[0, 0], [2, 0], [2, 2], [0, 2], [0, 0]], dtype=float)
    c = np.array([[5, 5], [8, 5], [8, 8], [5, 8], [5, 5]], dtype=float)
    h = np.array([[6, 6], [7, 6], [7, 7], [6, 7], [6, 6]], dtype=float)
    base = str(tmp_path / "mp")
    codecs.write_shapefile(pa.table({
        "gid": pa.array([1], type=pa.int64()),
        "geometry": pa.array([wkb.multipolygon([[a], [c, h]])],
                             type=pa.binary())}), base)
    b = codecs.read_shapefile(base + ".shp").to_pandas()
    kind, polys = wkb.decode(b["geometry"][0])
    assert kind == wkb.MULTIPOLYGON and len(polys) == 2
    n_rings = sorted(len(p) for p in polys)
    assert n_rings == [1, 2]       # the hole landed on its parent


# ---------------------------------------------------------- OSM PBF

def test_osm_pbf_roundtrip_filter_and_coords(tmp_path):
    """In-repo PBF writer → reader roundtrip on REAL wire format
    (varint framing, zlib blobs, dense-node delta streams): the
    reference's extract filter keeps highway/waterway/coastline ways
    and drops buildings; coordinates survive the 1e-7 granularity
    exactly for 1e-3-grid inputs."""
    from prclz_ray.io import osmpbf

    nodes = {1: (43.10, 11.50), 2: (43.11, 11.51),
             3: (43.12, 11.52), 4: (43.13, 11.50)}
    ways = [(100, {"highway": "primary", "name": "Main St"},
             [1, 2, 3]),
            (101, {"natural": "coastline"}, [3, 4]),
            (102, {"building": "yes"}, [1, 4]),
            (103, {"waterway": "river"}, [2, 4])]
    p = str(tmp_path / "t.osm.pbf")
    osmpbf.write_osm_pbf(p, nodes, ways)
    df = osmpbf.read_osm_pbf(p).to_pandas() \
        .sort_values("osm_id").reset_index(drop=True)
    assert list(df["osm_id"]) == ["100", "101", "103"]  # 102 dropped
    assert df.loc[0, "highway"] == "primary"
    assert df.loc[0, "name"] == "Main St"
    assert df.loc[1, "natural"] == "coastline"
    assert df.loc[2, "waterway"] == "river"
    k, coords = wkb.decode(df.loc[0, "geometry"])
    assert k == wkb.LINESTRING
    assert np.allclose(np.asarray(coords),
                       [[43.10, 11.50], [43.11, 11.51],
                        [43.12, 11.52]], atol=1e-7)

    # uncompressed blob variant parses identically
    p2 = str(tmp_path / "raw.osm.pbf")
    osmpbf.write_osm_pbf(p2, nodes, ways, compress=False)
    df2 = osmpbf.read_osm_pbf(p2).to_pandas()
    assert len(df2) == 3


def test_osm_pbf_negative_coords_and_delta(tmp_path):
    """Zigzag delta coding must survive negative and descending
    coordinates (southern/western hemispheres)."""
    from prclz_ray.io import osmpbf

    nodes = {10: (-122.4194, 37.7749), 11: (-122.4180, 37.7740),
             12: (-0.1278, -51.5074)}
    ways = [(7, {"highway": "residential"}, [12, 10, 11])]
    p = str(tmp_path / "neg.osm.pbf")
    osmpbf.write_osm_pbf(p, nodes, ways)
    df = osmpbf.read_osm_pbf(p).to_pandas()
    _, coords = wkb.decode(df.loc[0, "geometry"])
    assert np.allclose(np.asarray(coords),
                       [[-0.1278, -51.5074],
                        [-122.4194, 37.7749],
                        [-122.4180, 37.7740]], atol=1e-7)


def test_shapefile_in_zip(tmp_path):
    """The reference's shapefile-in-zip input: .shp/.dbf members parse
    straight from the archive, multiple shapefiles per zip concat."""
    import zipfile

    base1 = str(tmp_path / "a")
    codecs.write_shapefile(pa.table({
        "id": pa.array([1, 2], type=pa.int64()),
        "geometry": pa.array([wkb.point(1.0, 2.0),
                              wkb.point(3.0, 4.0)],
                             type=pa.binary())}), base1)
    base2 = str(tmp_path / "b")
    codecs.write_shapefile(pa.table({
        "id": pa.array([7], type=pa.int64()),
        "geometry": pa.array([wkb.point(9.0, 9.0)],
                             type=pa.binary())}), base2)
    zp = str(tmp_path / "both.zip")
    with zipfile.ZipFile(zp, "w") as zf:
        for b in (base1, base2):
            for ext in (".shp", ".shx", ".dbf"):
                zf.write(b + ext, os.path.basename(b) + ext)
    df = codecs.read_shapefile(zp).to_pandas() \
        .sort_values("id").reset_index(drop=True)
    assert list(df["id"]) == [1, 2, 7]
    xs, ys = wkb.points_xy(list(df["geometry"]))
    assert list(xs) == [1.0, 3.0, 9.0]


@pytest.mark.parametrize("fno,codec", [(4, "lzma"), (5, "bzip2"),
                                       (6, "lz4"), (7, "zstd")])
def test_osm_pbf_unsupported_blob_compression_raises(tmp_path, fno, codec):
    """A blob carried in a compression the stdlib cannot decode must
    fail loudly, not parse as an empty block."""
    import struct

    from prclz_ray.io import osmpbf

    payload = b"\x00" * 16
    blob = osmpbf._tag(2, 0) + osmpbf._ev(len(payload)) \
        + osmpbf._ld(fno, payload)
    hdr = osmpbf._ld(1, b"OSMData") + osmpbf._tag(3, 0) \
        + osmpbf._ev(len(blob))
    p = str(tmp_path / f"{codec}.osm.pbf")
    with open(p, "wb") as f:
        f.write(struct.pack(">i", len(hdr)) + hdr + blob)
    with pytest.raises(ValueError, match=codec):
        osmpbf.parse_pbf_lines(p)



@pytest.mark.parametrize("compress", [True, False])
def test_osm_pbf_truncated_file_raises_with_offset(tmp_path, compress):
    """A file cut anywhere inside a frame fails loudly with the frame's
    byte offset, instead of an IndexError, a zlib error or a silently
    shorter table.  A cut exactly between the two frames leaves a valid
    header-only file, so that offset is skipped."""
    import struct

    from prclz_ray.io import osmpbf

    nodes = {1: (43.10, 11.50), 2: (43.11, 11.51), 3: (43.12, 11.52)}
    ways = [(100, {"highway": "primary", "name": "Main St"}, [1, 2, 3])]
    p = str(tmp_path / "full.osm.pbf")
    osmpbf.write_osm_pbf(p, nodes, ways, compress=compress)
    raw = open(p, "rb").read()
    assert osmpbf.parse_pbf_lines(p).num_rows == 1
    (hlen,) = struct.unpack_from(">i", raw, 0)
    _, dsize = next((f, v) for f, _, v in
                    osmpbf._fields(raw[4:4 + hlen]) if f == 3)
    boundary = 4 + hlen + dsize
    cut_p = str(tmp_path / "cut.osm.pbf")
    for cut in range(1, len(raw)):
        if cut == boundary:
            continue
        with open(cut_p, "wb") as f:
            f.write(raw[:cut])
        with pytest.raises(ValueError, match=r"PBF frame at byte \d+"):
            osmpbf.parse_pbf_lines(cut_p)


def test_osm_pbf_bad_varint_and_overlong_field_raise(tmp_path):
    """A varint longer than 10 bytes, and a length-delimited field that
    runs past its message, each raise ValueError naming the offset."""
    import struct

    from prclz_ray.io import osmpbf

    def write(hdr: bytes, blob: bytes) -> str:
        p = str(tmp_path / "bad.osm.pbf")
        with open(p, "wb") as f:
            f.write(struct.pack(">i", len(hdr)) + hdr + blob)
        return p

    blob = osmpbf._ld(1, b"")
    hdr = osmpbf._tag(1, 2) + b"\xff" * 11 + b"\x01" + b"OSMHeader"
    with pytest.raises(ValueError, match="bad varint at byte 1"):
        osmpbf.parse_pbf_lines(write(hdr, blob))

    blob = osmpbf._tag(1, 2) + osmpbf._ev(100) + b"abc"
    hdr = osmpbf._ld(1, b"OSMHeader") + osmpbf._tag(3, 0) \
        + osmpbf._ev(len(blob))
    with pytest.raises(ValueError,
                       match="field 1 at byte 0 runs past the end"):
        osmpbf.parse_pbf_lines(write(hdr, blob))

def test_shapefile_deleted_dbf_rows_drop_their_shapes(tmp_path):
    """A .dbf row flagged deleted takes its .shp record with it, so the
    remaining attributes stay aligned with their geometries."""
    import struct

    base = str(tmp_path / "del")
    codecs.write_shapefile(pa.table({
        "id": pa.array([1, 2, 3], type=pa.int64()),
        "geometry": pa.array([wkb.point(1.0, 1.0), wkb.point(2.0, 2.0),
                              wkb.point(3.0, 3.0)], type=pa.binary())}),
        base)
    with open(base + ".dbf", "r+b") as f:
        raw = f.read()
        _, hdrlen, reclen = struct.unpack_from("<IHH", raw, 4)
        f.seek(hdrlen + 1 * reclen)          # record #2
        f.write(b"*")
    df = codecs.read_shapefile(base + ".shp").to_pandas() \
        .sort_values("id").reset_index(drop=True)
    assert list(df["id"]) == [1, 3]
    xs, _ = wkb.points_xy(list(df["geometry"]))
    assert list(xs) == [1.0, 3.0]
    # a .dbf with a different record count cannot be aligned at all
    with open(base + ".shp", "rb") as f:
        shp = f.read()
    with open(base + ".dbf", "rb") as f:
        dbf = f.read()
    with pytest.raises(ValueError, match="shape records"):
        codecs._shp_table(shp[:-28], dbf, None)   # drop the last point


def test_shapefile_in_zip_matches_siblings_ignoring_case(tmp_path):
    import zipfile

    base = str(tmp_path / "pts")
    codecs.write_shapefile(pa.table({
        "id": pa.array([4, 5], type=pa.int64()),
        "geometry": pa.array([wkb.point(1.0, 2.0), wkb.point(3.0, 4.0)],
                             type=pa.binary())}), base)
    zp = str(tmp_path / "mixed.zip")
    with zipfile.ZipFile(zp, "w") as zf:
        zf.write(base + ".shp", "PTS.SHP")
        zf.write(base + ".shx", "PTS.SHX")
        zf.write(base + ".dbf", "pts.dbf")
    df = codecs.read_shapefile(zp).to_pandas() \
        .sort_values("id").reset_index(drop=True)
    assert list(df["id"]) == [4, 5]


def test_shapefile_in_zip_without_dbf_raises(tmp_path):
    """A .shp member with no .dbf sibling in the archive fails loudly,
    naming the archive and the member, instead of reading as
    attribute-less rows."""
    import zipfile

    base = str(tmp_path / "pts")
    codecs.write_shapefile(pa.table({
        "id": pa.array([4, 5], type=pa.int64()),
        "geometry": pa.array([wkb.point(1.0, 2.0), wkb.point(3.0, 4.0)],
                             type=pa.binary())}), base)
    zp = str(tmp_path / "nodbf.zip")
    with zipfile.ZipFile(zp, "w") as zf:
        zf.write(base + ".shp", "sub/pts.shp")
        zf.write(base + ".shx", "sub/pts.shx")
    # the reader's ValueError reaches the caller inside Ray's task error
    with pytest.raises(Exception,
                       match=r"ValueError: .*nodbf\.zip.*sub/pts\.shp.*\.dbf"):
        codecs.read_shapefile(zp).materialize()


@pytest.mark.parametrize("cut, offset", [
    ("magic", 0),          # file code zeroed
    ("body", 156),         # last record loses its y coordinate
    ("header", 128),       # 4 bytes of the second record header remain
])
def test_corrupt_shapefile_raises_with_offset(tmp_path, cut, offset):
    """A corrupt .shp raises ValueError naming the byte offset of the
    bad part (it used to parse a zeroed magic as rows under python -O
    and raise struct.error on a truncated record)."""
    base = str(tmp_path / "pts")
    codecs.write_shapefile(pa.table({
        "id": pa.array([1, 2, 3], type=pa.int64()),
        "geometry": pa.array([wkb.point(float(i), 0.0) for i in range(3)],
                             type=pa.binary())}), base)
    raw = open(base + ".shp", "rb").read()
    assert len(raw) == 100 + 3 * 28       # three 28-byte point records
    raw = {"magic": b"\0\0\0\0" + raw[4:], "body": raw[:-8],
           "header": raw[:100 + 28 + 4]}[cut]
    with pytest.raises(ValueError, match=f"byte offset {offset}\\b"):
        codecs._shp_table(raw, None, None)
