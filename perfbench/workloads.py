"""The two workloads: inputs, warm-up job, timed operations, output
checks, in-process layer costs and the traced job.

Each workload's ``why`` is the reason it is in the benchmark; the same
sentences are in BENCHMARK.json and README.md.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
KNN_OP = "knn_join from read_parquet"
# the same sub-driver fed from in-memory from_arrow blocks, which does not
# hang, took 8.0-8.7 s end to end (README.md); the margin covers loaded
# host windows
KNN_TIMEOUT_S = 15.0
KNN_K = 3
KNN_SAMPLE = 200
LAYER_BATCH = 300


def _median_time(fn, reps: int = 3) -> float:
    ts = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t0)
    return float(np.median(ts))


def _files(d: str) -> list[str]:
    return sorted(os.path.join(d, f) for f in os.listdir(d)
                  if f.endswith(".parquet"))


def _read_s(files: list[str], columns=None) -> tuple[float, int]:
    """In-process parquet decode of the job's input (the decoder Ray's
    read tasks run), and the decoded bytes."""
    t0 = time.perf_counter()
    t = pq.read_table(files, columns=columns)
    return time.perf_counter() - t0, t.nbytes


class Workload:
    name = ""
    why = ""
    # timed repeats per second of --seconds; a fixed count per run keeps
    # ``attempted`` the same on every run
    repeats_per_s = 0.3

    def __init__(self, cache_root: str, tmp_root: str, seed: int):
        self.cache_root, self.tmp_root, self.seed = cache_root, tmp_root, seed

    def repeats(self, seconds: float) -> int:
        return max(2, int(round(seconds * self.repeats_per_s)))


# ----------------------------------------------------------------- pages

class PagesCC(Workload):
    """Common-Crawl-weight pages through both flagship shapes: the
    streaming region counts and the CLI ``flagship --out`` path's fresh
    ``run_flagship`` write, timed together for ``rows_per_s``, then a
    rerun on the committed directory, timed for ``resume_s``."""
    name = "pages_cc"
    why = ("BASELINE headline path plus the CLI flagship --out write and its "
           "rerun; html parsing, the dedup shuffle and checkpointing each "
           "show here, and none of them in geojoin_tiled")
    n_pages = 1000
    n_files = 2
    n_warm = 60
    repeats_per_s = 0.4   # a repeat is ~8 s: stream, write and rerun

    def prepare(self):
        def build(d):
            p = gen.pages(self.seed, self.n_pages)
            gen.write_files(gen.pages_table(p), os.path.join(d, "pages"),
                            self.n_files)
            pq.write_table(pa.table({"text": p["text"]}),
                           os.path.join(d, "text.parquet"))
            pq.write_table(pa.table({"url": p["url"], "warc_ts": p["warc_ts"],
                                     "lng": p["lng"], "lat": p["lat"]}),
                           os.path.join(d, "truth.parquet"))
            w = gen.pages(self.seed + 1_000_003, self.n_warm)
            gen.write_files(gen.pages_table(w), os.path.join(d, "warm"), 1)
            pq.write_table(gen.regions_table(),
                           os.path.join(d, "regions.parquet"))
        key = f"{self.name}-s{self.seed}-n{self.n_pages}"
        d = gen.cached(self.cache_root, key, build)
        self.files = _files(os.path.join(d, "pages"))
        self.warm_files = _files(os.path.join(d, "warm"))
        self.regions = pq.read_table(os.path.join(d, "regions.parquet"))
        self.text_path = os.path.join(d, "text.parquet")
        truth = pq.read_table(os.path.join(d, "truth.parquet")).to_pydict()
        self.rows = len(truth["url"])
        self.oracle = gen.region_counts_oracle(
            truth["url"], np.asarray(truth["warc_ts"]),
            np.asarray(truth["lng"], dtype=float),
            np.asarray(truth["lat"], dtype=float))
        return {"rows": self.rows, "files": len(self.files),
                "file_bytes": sum(os.path.getsize(f) for f in self.files)}

    def _pages_ds(self, files):
        import ray.data as rd
        return rd.read_parquet(files, columns=["url", "warc_ts", "html"])

    def _check_counts(self, counts: dict) -> str | None:
        if counts != self.oracle:
            return f"region counts {counts} != oracle {self.oracle}"
        return None

    def layers(self) -> dict:
        """In-process µs/row of each fused stage on a fixed batch of this
        workload's own input; checks extraction against the generator."""
        from prclz_ray.index import tiling
        from prclz_ray.pipelines import flagship
        from prclz_ray.stages.extract_text import extract_text_bytes
        from prclz_ray.stages.joins import PIPJoiner, _polygon_pack

        batch = pq.read_table(self.files[0],
                              columns=["url", "warc_ts", "html"])
        batch = batch.slice(0, LAYER_BATCH).combine_chunks()
        n = batch.num_rows
        htmls = batch["html"].to_pylist()
        texts = pq.read_table(self.text_path)["text"].to_pylist()[:n]
        got = [extract_text_bytes(h) for h in htmls]
        bad = sum(a != b for a, b in zip(got, texts))
        ext = _median_time(lambda: [extract_text_bytes(h) for h in htmls])
        parser = flagship.PageParser()
        parsed = parser(batch)
        par = _median_time(lambda: parser(batch))
        tiled = tiling.assign_cells_batch(parsed, "lng", "lat")
        asg = _median_time(lambda: tiling.assign_cells_batch(
            parsed, "lng", "lat"))
        joiner = PIPJoiner(_polygon_pack(self.regions, "gadm_code"),
                           "lng", "lat", "gadm_code", "left")
        pip = _median_time(lambda: joiner(tiled))
        uh = _median_time(lambda: flagship._url_hash_cols(tiled))
        read_s, nbytes = _read_s(self.files, ["url", "warc_ts", "html"])
        lat = parsed["lat"].to_numpy(zero_copy_only=False)
        return {
            "text_mismatches": bad,
            "us": {"io.read": read_s / self.rows * 1e6,
                   "extract_text": ext / n * 1e6,
                   "page_parser": par / n * 1e6,
                   "tiling.assign": asg / n * 1e6,
                   "joins.pip": pip / n * 1e6,
                   "flagship.url_hash": uh / n * 1e6},
            "io.read_s": read_s,
            "io.bytes_per_row": nbytes / self.rows,
            "page_parser.geo_hit_ratio": float(np.mean(~np.isnan(lat))),
        }

    def parse_costs(self, us: dict, rows: int) -> list[tuple[str, float]]:
        """Attributed in-process costs of one full read→parse→tile→PIP
        pass over ``rows`` rows.  The parser's own share is what it costs
        beyond extraction, which it calls; when timing noise makes that
        negative it is 0."""
        own = max(0.0, us["page_parser"] - us["extract_text"])
        return [("io.read", us["io.read"] * rows / 1e6),
                ("extract_text", us["extract_text"] * rows / 1e6),
                ("page_parser", own * rows / 1e6),
                ("tiling.assign", us["tiling.assign"] * rows / 1e6),
                ("joins.pip", us["joins.pip"] * rows / 1e6),
                ("flagship.url_hash", us["flagship.url_hash"] * rows / 1e6)]

    def _job(self, files):
        from prclz_ray.pipelines.flagship import \
            flagship_region_counts_streaming
        df = flagship_region_counts_streaming(self._pages_ds(files),
                                              self.regions)
        return {(None if not isinstance(k, str) else k): int(v)
                for k, v in zip(df["gadm_code"], df["n_pages"])}

    def warm_up(self):
        # run_flagship runs every stage the streaming job does, and more
        self._run(self.warm_files, self._out("warm"))

    def traced(self, tracer, ops, layers) -> dict:
        info = self._traced_streaming(tracer, ops, layers)
        info.update(self._traced_resume(tracer, ops, layers))
        info["wall_s"] += info.pop("fresh_wall_s")
        info["jobs"] = ["streaming", "fresh", "rerun"]
        return info

    def _traced_streaming(self, tracer, ops, layers) -> dict:
        from tracing import instrument
        with tracer.job_span("streaming") as job:
            with instrument(tracer):
                _, counts = ops.run(
                    "flagship_region_counts_streaming (traced)",
                    lambda: self._job(self.files), self._check_counts)
        spans = tracer.job_spans("streaming")
        mat = [s for s in spans if s["name"] == "exec.materialize"]
        red = [s for s in spans if s["name"] == "exec.to_pandas"]
        for s in mat:
            s["name"] = "flagship.narrow_map"
            tracer.attribute(s, self.parse_costs(layers["us"], self.rows))
        for s in red:
            s["name"] = "flagship.reduce"
        narrow_rows = sum(s.get("rows", 0) for s in mat)
        kept = sum((counts or {}).values())
        return {"wall_s": job["end"] - job["start"],
                "flagship.narrow_map_s": sum(s["end"] - s["start"]
                                             for s in mat),
                "flagship.reduce_s": sum(s["end"] - s["start"] for s in red),
                "flagship.narrow_blocks": sum(s.get("blocks", 0)
                                              for s in mat),
                "flagship.dedup_drop_ratio":
                    (narrow_rows - kept) / narrow_rows if narrow_rows else 0.0}

    def _run(self, files, out_dir):
        import ray.data as rd
        from prclz_ray.pipelines.flagship import run_flagship
        _, info = run_flagship(
            self._pages_ds(files), self.regions, out_dir=out_dir,
            narrow_pages_ds=rd.read_parquet(files,
                                            columns=["url", "warc_ts"]))
        return info["write"]

    def _out(self, tag: str) -> str:
        d = os.path.join(self.tmp_root, f"out-{self.name}-{tag}")
        shutil.rmtree(d, ignore_errors=True)
        return d

    def _check_fresh(self, w: dict) -> str | None:
        want = len(self.oracle)
        if w["written"] != want or w["skipped"] != 0 \
                or w["rows"] != sum(self.oracle.values()):
            return f"fresh write {w}, want {want} partitions written"
        return None

    def _check_rerun(self, out_dir):
        from prclz_ray.runtime.checkpoint import read_resumable

        def check(w: dict) -> str | None:
            want = len(self.oracle)
            if w["written"] != 0 or w["skipped"] != want:
                return f"rerun {w}, want 0 written and {want} skipped"
            df = read_resumable(out_dir).select_columns(
                ["gadm_code"]).to_pandas()
            got = df["gadm_code"].value_counts().to_dict()
            want_counts = {("UNMATCHED" if k is None else k): v
                           for k, v in self.oracle.items()}
            if {k: int(v) for k, v in got.items()} != want_counts:
                return f"read back {got} != oracle {want_counts}"
            return None
        return check

    def repeat(self, ops) -> dict:
        """The timed job is the streaming count plus the fresh write."""
        stream, _ = ops.run("flagship_region_counts_streaming",
                            lambda: self._job(self.files), self._check_counts)
        out = self._out("timed")
        fresh, _ = ops.run("run_flagship fresh write",
                           lambda: self._run(self.files, out),
                           self._check_fresh)
        rerun, _ = ops.run("run_flagship rerun on committed dir",
                           lambda: self._run(self.files, out),
                           self._check_rerun(out))
        job = stream + fresh if stream and fresh else None
        return {"job": job, "rerun": [rerun],
                "parts": {"stream": stream, "fresh": fresh}}

    def _traced_resume(self, tracer, ops, layers) -> dict:
        """The fresh write and the rerun, traced.  ``wall_s`` is the fresh
        write's part of the timed job."""
        from prclz_ray.pipelines import flagship
        from prclz_ray.runtime import checkpoint
        from tracing import instrument
        fns = [(flagship, "duplicate_url_map", "flagship.dup_prepass"),
               (checkpoint, "write_partitioned_resumable",
                "checkpoint.write")]
        out = self._out("traced")
        res = {}
        for job, check in (("fresh", self._check_fresh),
                           ("rerun", self._check_rerun(out))):
            with tracer.job_span(job) as span:
                with instrument(tracer, fns):
                    _, w = ops.run(f"run_flagship {job} (traced)",
                                   lambda: self._run(self.files, out), check)
            res[job] = {"write": w, "wall_s": span["end"] - span["start"]}
            parsed = 0
            by_id = {s["id"]: s for s in tracer.job_spans(job)}
            for s in tracer.job_spans(job):
                if not s["name"].startswith("exec."):
                    continue
                parent = by_id.get(s["parent"], {}).get("name")
                if any("MapBatches(fused)" in o for o in s.get("ops", [])):
                    parsed += self.rows
                    tracer.attribute(s, self.parse_costs(layers["us"],
                                                         self.rows))
                elif any("MapBatches(partial)" in o
                         for o in s.get("ops", [])):
                    # the dup pre-pass's hash map; its to_pandas of the
                    # materialized result runs no operator
                    tracer.attribute(s, [(
                        "flagship.url_hash",
                        layers["us"]["flagship.url_hash"] * self.rows / 1e6)])
                if parent == "job":
                    s["name"] = "tiling.histogram"
            res[job]["parse_passes"] = parsed / self.rows
        w = res["rerun"]["write"] or {}
        return {"fresh_wall_s": res["fresh"]["wall_s"],
                "flagship.dup_prepass_s": tracer.named(
                    "fresh", "flagship.dup_prepass"),
                "flagship.parse_passes": res["fresh"]["parse_passes"],
                "tiling.histogram_s": tracer.named("fresh",
                                                   "tiling.histogram"),
                "checkpoint.write_s": tracer.named("fresh",
                                                   "checkpoint.write"),
                "checkpoint.partitions_written": w.get("written", -1),
                "checkpoint.partitions_skipped": w.get("skipped", -1),
                "checkpoint.resume_reparse_ratio":
                    res["rerun"]["parse_passes"]}


# --------------------------------------------------------------- geojoin

class GeojoinTiled(Workload):
    name = "geojoin_tiled"
    why = ("S2 covering, STRtree, PIP, kNN and the cell-keyed shuffle "
           "under skew with no html, so a parse change must read as "
           "unchanged here")
    n_pts = 1000
    n_fp = 300
    level = 12
    repeats_per_s = 0.3   # a repeat is ~10 s: the operation and 2 reruns
    # each rerun is one resume_s sample; a rerun is mostly S2 covering, whose
    # speed drifts by +-25% within seconds on a shared core, so the median
    # needs more samples than one per operation
    reruns = 2

    def prepare(self):
        def build(d):
            for sub, (n_fp, n_pts) in (("main", (self.n_fp, self.n_pts)),
                                       ("warm", (30, 60))):
                f = gen.footprints(self.seed + (sub == "warm"), n_fp, n_pts)
                pts, fps, cents = gen.footprint_tables(f)
                gen.write_files(pts, os.path.join(d, sub, "points"), 2)
                gen.write_files(fps, os.path.join(d, sub, "footprints"), 2)
                pq.write_table(cents, os.path.join(d, sub, "centroids.parquet"))
                pq.write_table(pa.table({"pid": f["pid"],
                                         "fid": gen.footprint_match_oracle(f)}),
                               os.path.join(d, sub, "truth.parquet"))
        key = f"{self.name}-s{self.seed}-n{self.n_pts}x{self.n_fp}"
        self.dir = gen.cached(self.cache_root, key, build)
        main = os.path.join(self.dir, "main")
        self.pts_files = _files(os.path.join(main, "points"))
        self.fp_files = _files(os.path.join(main, "footprints"))
        self.cents_path = os.path.join(main, "centroids.parquet")
        truth = pq.read_table(os.path.join(main, "truth.parquet"))
        self.truth = dict(zip(truth["pid"].to_pylist(),
                              truth["fid"].to_pylist()))
        self.rows = len(self.truth)
        pts = pq.read_table(self.pts_files)
        self.n_hot = int(gen.in_hot_box(pts["lng"].to_numpy(),
                                        pts["lat"].to_numpy()).sum())
        files = self.pts_files + self.fp_files
        return {"rows": self.rows, "footprints": self.n_fp,
                "files": len(files),
                "file_bytes": sum(os.path.getsize(f) for f in files)}

    def _plan(self, sub="main"):
        import ray.data as rd
        from prclz_ray.stages.joins import pip_join_tiled
        d = os.path.join(self.dir, sub)
        return pip_join_tiled(rd.read_parquet(os.path.join(d, "points")),
                              rd.read_parquet(os.path.join(d, "footprints")),
                              id_col="fid", level=self.level, how="left")

    def _histogram(self, joined):
        from prclz_ray.index import tiling
        hist = tiling.cell_histogram(joined).to_pandas()
        plan = tiling.salt_plan(pa.Table.from_pandas(hist),
                                threshold=max(1, self.rows // 10))
        return hist, plan

    def _op(self, sub="main", tracer=None):
        import contextlib
        span = tracer.span if tracer else (lambda _: contextlib.nullcontext())
        with span("joins.tiled_plan"):
            planned = self._plan(sub)
        with span("joins.tiled_exec"):
            joined = planned.materialize()
        with span("tiling.histogram"):
            hist, plan = self._histogram(joined)
        return joined, hist, plan, planned

    def warm_up(self):
        self._op("warm")

    def _check(self, res) -> str | None:
        joined, hist, plan, _ = res
        err = self._check_join(joined)
        if err:
            return err
        counts = hist["count()"].to_numpy()
        if int(counts.sum()) != self.rows:
            return f"cell histogram sums to {counts.sum()}, want {self.rows}"
        if counts.max() < self.n_hot or not plan:
            return (f"hot cell missing: max cell {counts.max()} < "
                    f"{self.n_hot} hot points, salt plan {plan}")
        return None

    def _check_join(self, joined) -> str | None:
        import ray
        t = pa.concat_tables(ray.get(joined.to_arrow_refs()))
        pid = t["pid"].to_pylist()
        fid = t["fid"].to_pylist()
        got = dict(zip(pid, (-1 if f is None else f for f in fid)))
        if len(pid) != self.rows or got != self.truth:
            bad = sum(got.get(k) != v for k, v in self.truth.items())
            return (f"tiled join: {len(pid)} rows, {bad} points differ "
                    "from the footprint oracle")
        return None

    def repeat(self, ops) -> dict:
        """The timed job is the tiled-join operation.  The join has no
        checkpointed output, so each rerun executes the already planned
        join again over the unchanged inputs."""
        wall, res = ops.run("pip_join_tiled + cell_histogram + salt_plan",
                            lambda: self._op(), self._check)
        reruns = []
        if res is not None:
            for _ in range(self.reruns):
                rerun, _ = ops.run("pip_join_tiled rerun of the planned join",
                                   res[3].materialize, self._check_join)
                reruns.append(rerun)
        return {"job": wall, "rerun": reruns, "parts": {}}

    def knn(self, ops, address: str):
        """kNN fed by read_parquet as users would, in a sub-driver joined to
        this cluster so a hang can be killed without losing the session."""
        out = os.path.join(self.tmp_root, "knn-out.parquet")
        if os.path.exists(out):
            os.remove(out)

        def run():
            p = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "knn_op.py"), address,
                 os.path.join(self.dir, "main", "points"), self.cents_path,
                 str(KNN_K), out],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            try:
                rc = p.wait(timeout=KNN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
                raise TimeoutError(f"knn_join made no result in "
                                   f"{KNN_TIMEOUT_S:.0f} s")
            if rc != 0:
                raise RuntimeError(f"knn sub-driver exit code {rc}")
            return pq.read_table(out)

        return ops.run(KNN_OP, run, self._check_knn,
                       timeout=KNN_TIMEOUT_S + 30)

    def _check_knn(self, t: pa.Table) -> str | None:
        cents = pq.read_table(self.cents_path)
        pts = pq.read_table(self.pts_files)
        rng = np.random.default_rng([self.seed, 3])
        sample = rng.choice(pts.num_rows, min(KNN_SAMPLE, pts.num_rows),
                            replace=False)
        px = pts["lng"].to_numpy()[sample]
        py = pts["lat"].to_numpy()[sample]
        want = gen.knn_oracle(px, py, cents["lng"].to_numpy(),
                              cents["lat"].to_numpy(),
                              cents["fid"].to_numpy(), KNN_K)
        d = t.to_pandas().sort_values(["pid", "nn_rank"])
        got = d.groupby("pid")["nn_id"].apply(list).to_dict()
        pid = pts["pid"].to_numpy()[sample]
        bad = sum(got.get(int(p)) != list(w) for p, w in zip(pid, want))
        return f"knn: {bad} of {len(pid)} sampled points differ" if bad \
            else None

    def layers(self) -> dict:
        from prclz_ray.geom import wkb
        from prclz_ray.geom.strtree import STRtree
        from prclz_ray.index import s2, tiling
        from prclz_ray.stages.joins import KNNJoiner, PIPJoiner, _polygon_pack

        pts = pq.read_table(self.pts_files).slice(0, LAYER_BATCH * 3)
        fps = pq.read_table(self.fp_files)
        n = pts.num_rows
        boxes = wkb.bboxes(fps["geometry"].to_pylist())
        sample = boxes[:LAYER_BATCH // 3]      # ~5-10 ms per footprint
        cells = [len(s2.cover_bbox(*b, level=self.level)) for b in sample]
        cover = _median_time(lambda: [s2.cover_bbox(*b, level=self.level)
                                      for b in sample])
        asg = _median_time(lambda: tiling.assign_cells_batch(
            pts, "lng", "lat", self.level))
        tree = STRtree(boxes)
        px, py = pts["lng"].to_numpy(), pts["lat"].to_numpy()
        cand_p, _ = tree.query_points(px, py)
        joiner = PIPJoiner(_polygon_pack(fps, "fid"), "lng", "lat", "fid",
                           "left")
        pi, _ = joiner.match(px, py)
        pip = _median_time(lambda: joiner(pts))
        cents = pq.read_table(self.cents_path)
        tx = cents["lng"].to_numpy()
        span = max(tx.max() - tx.min(), np.ptp(cents["lat"].to_numpy()), 1e-9)
        knn = KNNJoiner((tx, cents["lat"].to_numpy(),
                         cents["fid"].to_pylist(),
                         span / max(1.0, np.sqrt(len(tx)))),
                        "lng", "lat", KNN_K, "fid")
        knn_s = _median_time(lambda: knn(pts), reps=1)
        read_s, nbytes = _read_s(self.pts_files + self.fp_files)
        return {
            "us": {"io.read": read_s / self.rows * 1e6,
                   "s2.cover": cover / len(sample) * 1e6,
                   "tiling.assign": asg / n * 1e6,
                   "joins.pip": pip / n * 1e6,
                   "joins.knn": knn_s / n * 1e6},
            "io.read_s": read_s,
            "io.bytes_per_row": nbytes / self.rows,
            "s2.cells_per_polygon": float(np.mean(cells)),
            "strtree.candidates_per_point": len(cand_p) / n,
            "joins.pip_hit_ratio": len(pi) / max(1, len(cand_p)),
        }

    def traced(self, tracer, ops, layers) -> dict:
        from tracing import instrument
        us = layers["us"]
        with tracer.job_span("tiled") as job:
            with instrument(tracer):
                _, res = ops.run("pip_join_tiled (traced)",
                                 lambda: self._op(tracer=tracer), self._check)
        spans = tracer.job_spans("tiled")
        outer = next((s["id"] for s in spans
                      if s["name"] == "joins.tiled_exec"), None)
        exe = next((s for s in spans if s["parent"] == outer
                    and s["name"] == "exec.materialize"), None)
        if exe is not None:
            tracer.attribute(exe, [
                ("io.read", us["io.read"] * self.rows / 1e6),
                ("s2.cover", us["s2.cover"] * self.n_fp / 1e6),
                ("tiling.assign", us["tiling.assign"] * self.rows / 1e6),
                ("joins.pip", us["joins.pip"] * self.rows / 1e6)])
        max_tile = 0
        hot, share = 0, 0.0
        if res is not None:
            counts = res[1]["count()"].to_numpy()
            max_tile = int(counts.max())
            hot = len(res[2])
            share = max_tile / self.rows
        return {"wall_s": job["end"] - job["start"], "jobs": ["tiled"],
                "joins.tiled_plan_s": tracer.named("tiled",
                                                   "joins.tiled_plan"),
                "joins.tiled_exec_s": tracer.named("tiled",
                                                   "joins.tiled_exec"),
                "tiling.histogram_s": tracer.named("tiled",
                                                   "tiling.histogram"),
                "joins.max_tile_rows": max_tile, "tiling.hot_cells": hot,
                "tiling.max_cell_share": share}


WORKLOADS = {w.name: w for w in (PagesCC, GeojoinTiled)}
