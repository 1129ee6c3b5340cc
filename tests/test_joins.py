"""Spatial joins vs brute-force NumPy oracles: PIP (broadcast + tiled),
kNN with refinement, zonal stats, raster grid."""
import os
import shutil
import signal
import subprocess
import sys
import tempfile

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from prclz_ray.geom import wkb
from prclz_ray.stages import joins, util

RNG = np.random.default_rng(11)


def _polys():
    # 3x3 grid of unit squares with ids p0..p8
    ids, geoms = [], []
    for r in range(3):
        for c in range(3):
            ids.append(f"p{r * 3 + c}")
            x0, y0 = float(c), float(r)
            geoms.append(wkb.polygon(np.array(
                [(x0, y0), (x0 + 1, y0), (x0 + 1, y0 + 1), (x0, y0 + 1),
                 (x0, y0)])))
    return pa.table({"poly_id": ids,
                     "geometry": pa.array(geoms, type=pa.binary())})


def _points(n=500):
    # interior points only (offset off the grid lines) + some outside
    px = RNG.uniform(0.01, 2.99, n)
    py = RNG.uniform(0.01, 2.99, n)
    px[:20] = RNG.uniform(5, 6, 20)  # unmatched
    return pa.table({"pt_id": np.arange(n, dtype=np.int64),
                     "lng": px, "lat": py})


def _oracle_pip(pts: pa.Table):
    px = pts["lng"].to_numpy()
    py = pts["lat"].to_numpy()
    out = []
    for x, y in zip(px, py):
        if 0 <= x < 3 and 0 <= y < 3:
            out.append(f"p{int(y) * 3 + int(x)}")
        else:
            out.append(None)
    return out


def test_pip_join_inner_and_left():
    pts = _points()
    oracle = _oracle_pip(pts)
    n_match = sum(o is not None for o in oracle)

    inner = joins.pip_join(rd.from_arrow(pts).repartition(4), _polys(),
                           id_col="poly_id", how="inner").to_pandas()
    assert len(inner) == n_match
    got = inner.set_index("pt_id")["poly_id"].to_dict()
    for pid, o in zip(pts["pt_id"].to_pylist(), oracle):
        if o is not None:
            assert got[pid] == o

    left = joins.pip_join(rd.from_arrow(pts).repartition(4), _polys(),
                          id_col="poly_id", how="left").to_pandas()
    assert len(left) == len(pts)
    assert left["poly_id"].isna().sum() == len(pts) - n_match


def test_pip_join_tiled_matches_broadcast():
    pts = _points(300)
    bc = joins.pip_join(rd.from_arrow(pts), _polys(), id_col="poly_id",
                        how="inner").to_pandas()
    tiled = joins.pip_join_tiled(rd.from_arrow(pts).repartition(3),
                                 rd.from_arrow(_polys()),
                                 id_col="poly_id").to_pandas()
    a = bc.sort_values("pt_id")[["pt_id", "poly_id"]].reset_index(drop=True)
    b = tiled.sort_values("pt_id")[["pt_id", "poly_id"]].reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_pip_join_tiled_plans_without_executing(tmp_path, monkeypatch):
    """Planning the tiled join over read_parquet / from_arrow inputs runs
    nothing: the union schema comes from the input schemas plus the two
    appended columns, not from a limit(1) probe of the mapped sides."""
    import pyarrow.parquet as pq
    from ray.data._internal.plan import ExecutionPlan

    pts = _points(200)
    pq.write_table(pts, tmp_path / "pts.parquet")
    pq.write_table(_polys(), tmp_path / "polys.parquet")
    runs = []
    for name in ("execute", "execute_to_iterator"):
        orig = getattr(ExecutionPlan, name)

        def counted(self, *a, _orig=orig, **kw):
            runs.append(self)
            return _orig(self, *a, **kw)
        monkeypatch.setattr(ExecutionPlan, name, counted)

    plans = [joins.pip_join_tiled(rd.read_parquet(str(tmp_path / "pts.parquet")),
                                  rd.read_parquet(str(tmp_path / "polys.parquet")),
                                  id_col="poly_id", how="left"),
             joins.pip_join_tiled(rd.from_arrow(pts), rd.from_arrow(_polys()),
                                  id_col="poly_id", how="left")]
    assert runs == []
    monkeypatch.undo()
    want = _oracle_pip(pts)
    for plan in plans:
        got = plan.to_pandas().sort_values("pt_id")
        assert list(got.columns) == ["pt_id", "lng", "lat", "cell", "poly_id"]
        assert [None if pd.isna(v) else v for v in got["poly_id"]] == want


def test_knn_join_matches_bruteforce():
    n_t = 40
    targets = pa.table({
        "t_id": [f"t{i}" for i in range(n_t)],
        "lng": RNG.uniform(0, 10, n_t),
        "lat": RNG.uniform(0, 10, n_t),
    })
    pts = pa.table({"pt_id": np.arange(60, dtype=np.int64),
                    "lng": RNG.uniform(0, 10, 60),
                    "lat": RNG.uniform(0, 10, 60)})
    k = 3
    out = joins.knn_join(rd.from_arrow(pts).repartition(4), targets, k=k,
                         id_col="t_id").to_pandas()
    assert len(out) == 60 * k

    tx = targets["lng"].to_numpy()
    ty = targets["lat"].to_numpy()
    px = pts["lng"].to_numpy()
    py = pts["lat"].to_numpy()
    for pid in range(60):
        rows = out[out["pt_id"] == pid].sort_values("nn_rank")
        d2 = (tx - px[pid]) ** 2 + (ty - py[pid]) ** 2
        # oracle orders by (dist, id) like the engine's tie-break
        order = np.lexsort((np.array([f"t{i}" for i in range(len(tx))]),
                            np.sqrt(d2)))[:k]
        assert list(rows["nn_id"]) == [f"t{i}" for i in order]
        assert np.allclose(rows["nn_dist"], np.sqrt(d2[order]))


def test_knn_tiebreak_across_grid_cells():
    """Exact-distance ties where the tied targets sit in DIFFERENT grid
    cells must still break by id (ORDER BY dist, id): the vectorized path
    concatenates 3x3-neighborhood buckets in dx/dy order, so without the
    post-concat index sort the tie would resolve by bucket order ("b")."""
    targets = pa.table({"t_id": ["a", "b"],
                        "lng": [1.0, -1.0], "lat": [0.0, 0.0]})
    pts = pa.table({"pt_id": np.array([0], dtype=np.int64),
                    "lng": [0.0], "lat": [0.0]})
    out = joins.knn_join(rd.from_arrow(pts), targets, k=1, id_col="t_id",
                         cell_size=1.5).to_pandas()
    assert list(out["nn_id"]) == ["a"]
    assert np.allclose(out["nn_dist"], [1.0])


def test_zonal_and_raster():
    pts = _points(400)
    vals = RNG.uniform(0, 100, 400)
    pts = pts.append_column("v", pa.array(vals))
    oracle = _oracle_pip(pts)

    z = joins.zonal_stats(rd.from_arrow(pts).repartition(4), _polys(),
                          id_col="poly_id", value_col="v").to_pandas()
    df = pd.DataFrame({"poly_id": oracle, "v": vals}).dropna()
    expect = df.groupby("poly_id")["v"].agg(["count", "sum", "mean"])
    z = z.set_index("poly_id")
    for pid, row in expect.iterrows():
        assert z.loc[pid, "n"] == row["count"]
        assert np.isclose(z.loc[pid, "sum_value"], row["sum"])
        assert np.isclose(z.loc[pid, "mean_value"], row["mean"])

    # raster grid counts: res=1.0 over the same points == zonal counts
    r = joins.rasterize_points(rd.from_arrow(pts).repartition(4),
                               res=1.0).to_pandas()
    grid_total = r["n"].sum()
    assert grid_total == 400


def test_asof_join_semantics(monkeypatch):
    """Constructed as-of: exact-tie timestamps match (<=), unmatched left
    rows drop (inner), a legitimately-null right VALUE survives, keys land
    across buckets."""
    from prclz_ray.stages import relational
    monkeypatch.setattr(relational, "NUM_BUCKETS", 4)
    left = pa.table({
        "eid": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
        "k": pa.array([10, 10, 10, 20, 30], type=pa.int64()),
        "t": pa.array([100, 205, 300, 150, 50], type=pa.int64()),
    })
    right = pa.table({
        "k": pa.array([10, 10, 20, 20], type=pa.int64()),
        "t": pa.array([90, 205, 100, 160], type=pa.int64()),
        "val": pa.array([1.0, None, 3.0, 4.0], type=pa.float64()),
    })
    out = relational.asof_join(rd.from_arrow(left).repartition(3),
                               rd.from_arrow(right).repartition(2),
                               on="t", by="k").to_pandas()
    got = {int(r.eid): (None if pd.isna(r.val) else float(r.val))
           for r in out.itertuples()}
    # eid1: t=100 -> right t=90 val 1.0; eid2: exact tie t=205 -> null val
    # kept; eid3: t=300 -> latest t=205; eid4: t=150 -> right t=100 (160 is
    # future); eid5: k=30 has no right rows -> dropped
    assert got == {1: 1.0, 2: None, 3: None, 4: 3.0}
    assert out["eid"].dtype == np.int64 and out["t"].dtype == np.int64


def test_asof_join_mixed_key_widths(monkeypatch):
    """int32 `on`/`by` columns on the left against int64 on the right
    match as equal widths do, and the output keeps the left's types."""
    from prclz_ray.stages import relational
    monkeypatch.setattr(relational, "NUM_BUCKETS", 4)
    left = pa.table({"eid": pa.array([1, 2, 3], type=pa.int64()),
                     "k": pa.array([10, 10, 20], type=pa.int32()),
                     "t": pa.array([100, 205, 150], type=pa.int32())})
    right = pa.table({"k": pa.array([10, 20], type=pa.int64()),
                      "t": pa.array([90, 100], type=pa.int64()),
                      "val": pa.array([1.0, 3.0])})
    out = relational.asof_join(rd.from_arrow(left), rd.from_arrow(right),
                               on="t", by="k").to_pandas()
    assert sorted(zip(out["eid"], out["val"])) == [(1, 1.0), (2, 1.0),
                                                   (3, 3.0)]
    assert out["k"].dtype == np.int32 and out["t"].dtype == np.int32


def test_band_join_semantics():
    """Pairs straddling a bucket boundary are found once (replication, no
    dupes), |diff| == radius is inclusive, out-of-band excluded."""
    from prclz_ray.stages import relational
    left = pa.table({"lid": pa.array([1, 2, 3], type=pa.int64()),
                     "v": pa.array([10, 95, 200], type=pa.int64())})
    right = pa.table({"rid": pa.array([7, 8, 9, 10], type=pa.int64()),
                      "v": pa.array([110, 104, 300, 11], type=pa.int64())})
    out = relational.band_join(rd.from_arrow(left).repartition(2),
                               rd.from_arrow(right).repartition(3),
                               on="v", radius=100).to_pandas()
    pairs = sorted(zip(out["lid"], out["rid"]))
    # lid1(v10): rid7(110,d100 inclusive), rid8(104,d94), rid10(11,d1)
    # lid2(v95): rid7(d15), rid8(d9), rid10(d84)
    # lid3(v200): rid7(d90), rid8(d96), rid9(d100 inclusive)
    assert pairs == [(1, 7), (1, 8), (1, 10), (2, 7), (2, 8), (2, 10),
                     (3, 7), (3, 8), (3, 9)]
    assert len(out) == len(out.drop_duplicates(["lid", "rid"]))
    assert out["v_r"].dtype == np.int64


def test_deterministic_sample():
    from prclz_ray.stages import relational
    tbl = pa.table({"k": pa.array(range(10000), pa.int64()),
                    "v": pa.array(range(10000), pa.int64())})
    ds = rd.from_arrow(tbl).repartition(4)
    out = relational.deterministic_sample(ds, "k", rate_ppm=50_000, seed=1) \
        .to_pandas().sort_values("k").reset_index(drop=True)
    # reproducible: identical selection on re-run and at other parallelism
    out2 = relational.deterministic_sample(
        rd.from_arrow(tbl).repartition(11), "k", 50_000, seed=1) \
        .to_pandas().sort_values("k").reset_index(drop=True)
    assert out.equals(out2)
    # ~5% rate, exact arithmetic
    k = np.arange(10000, dtype=np.uint64)
    h = (k + np.uint64(1)) * np.uint64(relational.SAMPLE_MIX)
    expect = k[(h % np.uint64(1_000_000)) < np.uint64(50_000)]
    assert np.array_equal(out["k"].to_numpy(np.uint64), expect)
    # different seed → different sample
    out3 = relational.deterministic_sample(ds, "k", 50_000, seed=7).to_pandas()
    assert set(out3["k"]) != set(out["k"])


def test_pip_auto_tiled_matches_broadcast_in_geo_pipelines(monkeypatch):
    """100x guard e2e: forcing BROADCAST_LIMIT_BYTES=0 routes the
    complexity/parcels pipelines through the tiled PIP join; outputs must
    match the broadcast path exactly."""
    import pyarrow as _pa

    from prclz_ray.io import synth
    from prclz_ray.stages.blocks import extract_blocks
    from prclz_ray.stages.complexity import complexity_pipeline
    from prclz_ray.stages.parcels import parcels_pipeline

    blocks = _pa.Table.from_pylist(
        extract_blocks(rd.from_arrow(synth.regions_table()),
                       rd.from_arrow(synth.lines_table())).take_all())
    bldgs = synth.buildings_table()

    def norm(ds, cols):
        return ds.to_pandas()[cols].sort_values(cols).reset_index(drop=True)

    cols_c = ["block_id", "complexity"]
    a = norm(complexity_pipeline(blocks, rd.from_arrow(bldgs)), cols_c)
    with monkeypatch.context() as m:
        m.setattr(util, "BROADCAST_LIMIT_BYTES", 0)
        b = norm(complexity_pipeline(blocks, rd.from_arrow(bldgs)), cols_c)
    pd.testing.assert_frame_equal(a, b)

    cols_p = ["block_id", "parcel_id", "bldg_id"]
    a = norm(parcels_pipeline(blocks, rd.from_arrow(bldgs)), cols_p)
    with monkeypatch.context() as m:
        m.setattr(util, "BROADCAST_LIMIT_BYTES", 0)
        b = norm(parcels_pipeline(blocks, rd.from_arrow(bldgs)), cols_p)
    pd.testing.assert_frame_equal(a, b)


def test_pip_tiled_left_matches_broadcast_left():
    """Tiled left join: unmatched points carry null ids, exactly as the
    broadcast left join does (a point lives in exactly one tile, so
    per-tile unmatched == globally unmatched)."""
    pts = pa.table({
        "pt_id": np.arange(40, dtype=np.int64),
        "lng": np.concatenate([RNG.uniform(0, 10, 30),
                               RNG.uniform(50, 60, 10)]),  # 10 far outside
        "lat": np.concatenate([RNG.uniform(0, 10, 30),
                               RNG.uniform(50, 60, 10)]),
    })
    bc = joins.pip_join(rd.from_arrow(pts), _polys(), id_col="poly_id",
                        how="left").to_pandas()
    tiled = joins.pip_join_tiled(rd.from_arrow(pts).repartition(3),
                                 rd.from_arrow(_polys()),
                                 id_col="poly_id", how="left").to_pandas()
    cols = ["pt_id", "poly_id"]
    a = bc[cols].sort_values(cols).reset_index(drop=True)
    b = tiled[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    assert b["poly_id"].isna().sum() >= 10


def test_pip_tiled_semi_anti_match_broadcast(monkeypatch):
    """Tiled semi/anti joins (VERDICT r3 item #3): each point lives in
    exactly one tile, so per-tile match flags are globally exact. The
    tiled result must equal the broadcast PIPJoiner's semi/anti filter,
    including when the auto-router is forced past the broadcast budget."""
    pts = _points(300)
    for how in ("semi", "anti"):
        bc = joins.pip_join(rd.from_arrow(pts), _polys(), id_col="poly_id",
                            how=how).to_pandas()
        tiled = joins.pip_join_tiled(rd.from_arrow(pts).repartition(3),
                                     rd.from_arrow(_polys()),
                                     id_col="poly_id", how=how).to_pandas()
        with monkeypatch.context() as m:
            m.setattr(util, "BROADCAST_LIMIT_BYTES", 0)
            auto = joins.pip_join_auto(rd.from_arrow(pts).repartition(3),
                                       _polys(), id_col="poly_id",
                                       how=how).to_pandas()
        want = sorted(bc["pt_id"].tolist())
        assert sorted(tiled["pt_id"].tolist()) == want
        assert sorted(auto["pt_id"].tolist()) == want
        # point columns only, each point at most once
        assert "poly_id" not in tiled.columns
        assert tiled["pt_id"].is_unique
    n_match = sum(o is not None for o in _oracle_pip(pts))
    assert len(bc) == len(pts) - n_match  # anti from the loop's last turn


# Script for the 1-CPU case below, run in its own process and Ray session:
# argv = repo root, Ray temp dir, work dir.  It reads back parquet it wrote,
# so each join's map is fused with a read task, the shape that starves when
# a stage holds the session's only CPU.
_ONE_CPU_SCRIPT = """
import os, sys
root, ray_tmp, work = sys.argv[1:4]
sys.path.insert(0, root)
import numpy as np, pyarrow as pa, pyarrow.parquet as pq, ray, ray.data as rd
from prclz_ray.stages import joins
from tests.test_joins import _polys
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", _temp_dir=ray_tmp)
rng = np.random.default_rng(5)
pts = pa.table({"pt_id": np.arange(400, dtype=np.int64),
                "lng": rng.uniform(-0.5, 3.5, 400),
                "lat": rng.uniform(-0.5, 3.5, 400)})
pq.write_table(pts, os.path.join(work, "points.parquet"))
pq.write_table(pa.table({"t_id": [f"t{i}" for i in range(30)],
                         "lng": rng.uniform(0, 3, 30),
                         "lat": rng.uniform(0, 3, 30)}),
               os.path.join(work, "targets.parquet"))
src = os.path.join(work, "points.parquet")
pip = joins.pip_join(rd.read_parquet(src), _polys(), id_col="poly_id",
                     how="left")
pq.write_table(pa.concat_tables(ray.get(pip.to_arrow_refs())),
               os.path.join(work, "pip.parquet"))
knn = joins.knn_join(rd.read_parquet(src),
                     pq.read_table(os.path.join(work, "targets.parquet")),
                     k=3, id_col="t_id")
pq.write_table(pa.concat_tables(ray.get(knn.to_arrow_refs())),
               os.path.join(work, "knn.parquet"))
ray.shutdown()
"""


def _kill_session(ray_tmp: str):
    """SIGKILL every process whose command line names ``ray_tmp``: the
    raylet, GCS and agents of that one Ray session, nothing else (its
    workers exit with their raylet)."""
    me = os.getpid()
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read()
        except OSError:
            continue
        if int(pid) != me and ray_tmp.encode() in cmd:
            try:
                os.kill(int(pid), signal.SIGKILL)
            except OSError:
                pass


def test_pip_and_knn_from_read_parquet_finish_on_one_cpu(tmp_path):
    """On a 1-CPU session, pip_join and knn_join fed by read_parquet must
    finish and match brute force.  A stage that pins the only CPU for its
    lifetime (an actor pool) starves the read task and never yields a row,
    so the script runs under a timeout in its own process group."""
    import pyarrow.parquet as pq

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ray_tmp = tempfile.mkdtemp(prefix="ray1cpu-")   # short: socket paths
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_SCRIPT, root, ray_tmp,
         str(tmp_path)],
        start_new_session=True, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=90)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError("pip_join/knn_join made no result in 90 s "
                             "on a 1-CPU session")
    finally:
        _kill_session(ray_tmp)
        shutil.rmtree(ray_tmp, ignore_errors=True)
    assert proc.returncode == 0, err.decode(errors="replace")[-2000:]

    pts = pq.read_table(tmp_path / "points.parquet")
    pip = pq.read_table(tmp_path / "pip.parquet").to_pandas()
    got = dict(zip(pip["pt_id"], pip["poly_id"]))
    assert len(pip) == len(pts) and len(got) == len(pts)
    want = _oracle_pip(pts)
    assert [got[i] for i in range(len(pts))] == want

    targets = pq.read_table(tmp_path / "targets.parquet")
    knn = pq.read_table(tmp_path / "knn.parquet").to_pandas()
    assert len(knn) == len(pts) * 3
    tx, ty = targets["lng"].to_numpy(), targets["lat"].to_numpy()
    tids = np.asarray(targets["t_id"].to_pylist())
    px, py = pts["lng"].to_numpy(), pts["lat"].to_numpy()
    for pid, rows in knn.sort_values("nn_rank").groupby("pt_id"):
        d = np.sqrt((tx - px[pid]) ** 2 + (ty - py[pid]) ** 2)
        order = np.lexsort((tids, d))[:3]
        assert list(rows["nn_id"]) == list(tids[order])
        assert np.allclose(rows["nn_dist"], d[order])


def test_left_join_ids_keep_polygon_type_when_nothing_matches():
    """An all-unmatched batch's id column has the polygon id type, not
    Arrow's null type, for string and integer ids alike."""
    far = pa.table({"pt_id": np.arange(5, dtype=np.int64),
                    "lng": np.full(5, 50.0), "lat": np.full(5, 50.0)})
    polys = _polys()
    for ids in (polys["poly_id"],
                pa.array(np.arange(9, dtype=np.int32))):
        tbl = polys.set_column(0, "poly_id", ids)
        out = joins.PIPJoiner(joins._polygon_pack(tbl, "poly_id", keep_wkb=True),
                              "lng", "lat", "poly_id", "left",
                              attach_geom_col="g")(far)
        assert out.schema.field("poly_id").type == ids.type
        assert out.schema.field("g").type == pa.binary()
        assert out["poly_id"].null_count == out["g"].null_count == 5


def test_pip_left_routes_give_same_columns_and_rows(monkeypatch):
    """Broadcast, tiled and both ``pip_join_auto`` routes of a left join
    with ``attach_geom_col`` give the same columns (the tiled route adds
    its ``cell``) and the same rows, unmatched points included."""
    pts = _points(200)
    kw = dict(id_col="poly_id", how="left", attach_geom_col="poly_geom")
    with monkeypatch.context() as m:
        m.setattr(util, "BROADCAST_LIMIT_BYTES", 0)
        auto_tiled = joins.pip_join_auto(rd.from_arrow(pts), _polys(), **kw)
    outs = {
        "broadcast": joins.pip_join(rd.from_arrow(pts), _polys(), **kw),
        "tiled": joins.pip_join_tiled(rd.from_arrow(pts),
                                      rd.from_arrow(_polys()), **kw),
        "auto_tiled": auto_tiled,
        "auto": joins.pip_join_auto(rd.from_arrow(pts), _polys(), **kw),
    }
    frames = {}
    for name, ds in outs.items():
        df = ds.to_pandas()
        frames[name] = df[[c for c in df.columns if c != "cell"]] \
            .sort_values("pt_id").reset_index(drop=True)
    want = frames.pop("broadcast")
    assert list(want.columns) == ["pt_id", "lng", "lat", "poly_id",
                                  "poly_geom"]
    assert want["poly_geom"].isna().sum() == 20
    for name, df in frames.items():
        pd.testing.assert_frame_equal(df, want, obj=name)


def test_pip_join_tiled_over_mapped_points_runs_no_limit_probe(monkeypatch):
    """A points input that does not know its schema (a mapped Dataset)
    runs to completion once; no ``limit(1)`` probe cancels its tasks."""
    from ray.data._internal.logical.operators.one_to_one_operator import \
        Limit
    from ray.data._internal.plan import ExecutionPlan

    probes = []
    for name in ("execute", "execute_to_iterator"):
        orig = getattr(ExecutionPlan, name)

        def counted(self, *a, _orig=orig, **kw):
            if isinstance(self._logical_plan.dag, Limit):
                probes.append(self._logical_plan.dag)
            return _orig(self, *a, **kw)
        monkeypatch.setattr(ExecutionPlan, name, counted)

    pts = _points(200)
    mapped = rd.from_arrow(pts).repartition(3).map_batches(
        lambda t: t, batch_format="pyarrow")
    got = joins.pip_join_tiled(mapped, rd.from_arrow(_polys()),
                               id_col="poly_id", how="left").to_pandas()
    assert probes == []
    got = got.sort_values("pt_id")
    assert [None if pd.isna(v) else v for v in got["poly_id"]] \
        == _oracle_pip(pts)
