"""Benchmark entry point.

    python3 perfbench/run.py --workload pages_cc --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Generates (or reuses) the seeded inputs
under ``.bench_cache/``, starts Ray with ``num_cpus = nproc``, sets up
several times to measure ``setup_s``, runs the workload's timed operations
for about ``--seconds`` seconds, checks every output against the
generator's oracles, and prints one JSON result as the last line of
stdout.  ``--trace 1`` instead runs the traced pass that produces the
per-layer metrics (see README.md).  The line before the result carries
the run's context: versions, commit, seed, input size, host noise and the
per-repeat samples.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import multiprocessing
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 2
OP_TIMEOUT_S = 60.0
RSS_PERIOD_S = 0.2
TRACE_CHECK = "trace "

END_TO_END = {"rows_per_s": "1/s", "resume_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "fail_ratio": "ratio"}
PER_LAYER = {
    "io.read_s": "s", "io.bytes_per_row": "bytes",
    "extract_text.us_per_row": "us",
    "page_parser.us_per_row": "us", "page_parser.geo_hit_ratio": "ratio",
    "flagship.url_hash_us_per_row": "us",
    "flagship.narrow_map_s": "s", "flagship.reduce_s": "s",
    "flagship.narrow_blocks": "count", "flagship.dedup_drop_ratio": "ratio",
    "flagship.dup_prepass_s": "s", "flagship.parse_passes": "ratio",
    "tiling.assign_us_per_row": "us",
    "s2.cover_us_per_polygon": "us", "s2.cells_per_polygon": "count",
    "tiling.histogram_s": "s", "tiling.hot_cells": "count",
    "tiling.max_cell_share": "ratio",
    "joins.pip_us_per_row": "us", "strtree.candidates_per_point": "count",
    "joins.pip_hit_ratio": "ratio", "joins.tiled_plan_s": "s",
    "joins.tiled_exec_s": "s", "joins.max_tile_rows": "count",
    "joins.knn_s": "s", "joins.knn_us_per_row": "us",
    "checkpoint.write_s": "s", "checkpoint.partitions_written": "count",
    "checkpoint.partitions_skipped": "count",
    "checkpoint.resume_reparse_ratio": "ratio",
    "ray.init_s": "s", "ray.overhead_s": "s", "trace.overhead_ratio": "ratio",
}


def log(msg: str):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# ------------------------------------------------------------ operations

def call_with_timeout(fn, timeout: float):
    """Run ``fn`` in a daemon thread; returns (state, result, wall) with
    state "ok", "error" or "timeout"."""
    box = {}

    def target():
        try:
            box["res"] = fn()
        except Exception as e:  # noqa: BLE001 - reported as a failure
            box["err"] = e
    t0 = time.perf_counter()
    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    wall = time.perf_counter() - t0
    if th.is_alive():
        return "timeout", None, wall
    if "err" in box:
        return "error", box["err"], wall
    return "ok", box["res"], wall


class Ops:
    """Counts attempted and failed operations.  An exception, a timeout
    or an output that fails its check is a failure; after a timeout the
    session may be wedged, so no further operation is started."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.hung = False
        self.errors: list[str] = []

    def run(self, name, fn, check=None, timeout=OP_TIMEOUT_S):
        if self.hung:
            return None, None
        self.attempted += 1
        state, res, wall = call_with_timeout(fn, timeout)
        err = None
        if state == "timeout":
            self.hung = True
            err = f"timed out after {timeout:.0f} s"
        elif state == "error":
            err = f"{type(res).__name__}: {res}"
            log("".join(traceback.format_exception(res)))
        elif check is not None:
            try:
                err = check(res)
            except Exception as e:  # noqa: BLE001
                err = f"check raised {type(e).__name__}: {e}"
        if err:
            self.failed += 1
            self.errors.append(f"{name}: {err}"[:500])
            log(f"FAIL {name}: {err}"[:500])
            return None, None
        return wall, res


# ------------------------------------------------------------ processes

def _children(pid: int) -> list[int]:
    out = []
    for f in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(f) as fh:
                out += [int(x) for x in fh.read().split()]
        except OSError:
            pass
    return out


def descendants(pid: int) -> list[int]:
    out, todo = [], [pid]
    while todo:
        for c in _children(todo.pop()):
            out.append(c)
            todo.append(c)
    return out


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return 0


class RssSampler:
    """Highest summed RSS of the driver and its Ray worker processes,
    sampled while the sampler is entered (it can be entered many times)."""

    def __init__(self):
        self.peak = 0
        self._stop = threading.Event()
        self._th = None

    def sample(self):
        me = os.getpid()
        pids = [me] + [p for p in descendants(me)
                       if _cmdline(p).startswith("ray::")
                       or "default_worker.py" in _cmdline(p)]
        self.peak = max(self.peak, sum(_rss_bytes(p) for p in pids))

    def __enter__(self):
        def loop():
            while not self._stop.wait(RSS_PERIOD_S):
                self.sample()
        self._stop.clear()
        self.sample()
        self._th = threading.Thread(target=loop, daemon=True)
        self._th.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._th.join()
        self.sample()


def _start_time(pid: int) -> str | None:
    """The process's start time, or None once it has ended (or is a
    zombie); with the pid it names one process even if the pid is reused."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return None if fields[0] in ("Z", "X") else fields[19]
    except (OSError, IndexError):
        return None


def process_set() -> dict[int, str]:
    """Every live process below this one, as pid -> start time."""
    out = {}
    for p in descendants(os.getpid()):
        st = _start_time(p)
        if st is not None:
            out[p] = st
    return out


def stop_processes(procs: dict[int, str], timeout: float = 20.0) -> list[int]:
    """Kill the given processes and every live process below this one, and
    wait until each has ended.  The given ones are followed even after
    they left this process tree: Ray's agents outlive the raylet that
    started them and are re-parented.  Returns the pids still alive."""
    deadline = time.time() + timeout
    procs = dict(procs)
    while True:
        procs.update(process_set())
        left = [p for p, st in procs.items() if _start_time(p) == st]
        for p in left:
            try:
                os.kill(p, signal.SIGKILL)
            except OSError:
                pass
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        if not left or time.time() > deadline:
            return left
        time.sleep(0.1)


# ------------------------------------------------------------ noise context

def _spin(n: int):
    t0, c0 = time.perf_counter(), time.process_time()
    x = 0
    for i in range(n):
        x += i * i
    return time.perf_counter() - t0, time.process_time() - c0


def host_probe(nproc: int) -> tuple[float, float]:
    """A fixed spin run in ``nproc`` processes at once.  Returns its wall
    over CPU time (~1.0 unless co-tenants take the cores outright) and its
    mean wall time, which also grows when they only slow the cores down."""
    with multiprocessing.get_context("spawn").Pool(nproc) as pool:
        res = pool.map(_spin, [2_000_000] * nproc)
        pool.close()
        pool.join()
    return (statistics.mean(w / max(c, 1e-9) for w, c in res),
            statistics.mean(w for w, _ in res))


def _cpu_times() -> list[int]:
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def _nproc() -> int:
    """CPUs as ``nproc`` reports them (it honours OMP_NUM_THREADS)."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  timeout=10).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        return len(os.sched_getaffinity(0))


def _source_sha() -> str:
    h = hashlib.sha1()
    for f in sorted(glob.glob(os.path.join(ROOT, "prclz_ray", "**", "*.py"),
                              recursive=True)):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def _git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def quartiles(xs: list[float]) -> dict:
    xs = [x for x in xs if x is not None]
    if not xs:
        return {"n": 0}
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return {"n": len(xs), "q1": q[0], "median": statistics.median(xs),
            "q3": q[2]}


# ------------------------------------------------------------ ray session

class Session:
    def __init__(self, nproc: int, tmp_root: str):
        self.nproc = nproc
        # unix socket paths under the temp dir must stay < 108 bytes
        short = os.path.join(tmp_root, "r")
        if len(short) <= 40:
            os.makedirs(short, exist_ok=True)
            self.temp, self.own_temp = short, False
        else:
            self.temp = tempfile.mkdtemp(prefix="pbr", dir="/tmp")
            self.own_temp = True

    def start(self) -> float:
        import logging

        import ray
        from ray.data import DataContext
        t0 = time.perf_counter()
        ray.init(address="local", num_cpus=self.nproc,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, _temp_dir=self.temp,
                 object_store_memory=256 << 20)
        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        return time.perf_counter() - t0

    def stop(self):
        """Shut Ray down and wait until every process it started has ended."""
        import ray
        procs = process_set()
        state, _, _ = call_with_timeout(ray.shutdown, 30.0)
        if state != "ok":
            log(f"ray.shutdown: {state}")
        left = stop_processes(procs)
        if left:
            log(f"processes still alive after cleanup: {left}")

    def address(self) -> str:
        import ray
        return ray.get_runtime_context().gcs_address

    def close(self):
        self.stop()
        if self.own_temp:
            shutil.rmtree(self.temp, ignore_errors=True)


# ------------------------------------------------------------ runs

def warm_up(w, ops: Ops) -> bool:
    """The untimed warm-up job; a failure counts like any operation."""
    state, res, _ = call_with_timeout(w.warm_up, OP_TIMEOUT_S)
    if state == "ok":
        return True
    ops.attempted += 1
    ops.failed += 1
    ops.hung = ops.hung or state == "timeout"
    ops.errors.append(f"warm-up: {state} {res}"[:500])
    return False


def untraced(w, sess: Session, ops: Ops, seconds: float) -> tuple[dict, dict]:
    """SETUPS times: start Ray and run the warm-up job (timed as setup),
    then this session's share of the timed repeats.  Spreading the
    repeats over both sessions averages them over the whole run instead of
    one stretch of it."""
    n = w.repeats(seconds)
    share = [n // SETUPS + (k < n % SETUPS) for k in range(SETUPS)]
    setups, jobs, reruns, parts = [], [], [], {}
    rss = RssSampler()
    for k in range(SETUPS):
        t0 = time.perf_counter()
        sess.start()
        ok = warm_up(w, ops)
        setups.append(time.perf_counter() - t0)
        if not ok:
            break
        with rss:
            for _ in range(share[k]):
                r = w.repeat(ops)
                jobs.append(r["job"])
                reruns += r["rerun"]
                for part, wall in r["parts"].items():
                    parts.setdefault(part, []).append(wall)
        if k < SETUPS - 1:
            sess.stop()
    if hasattr(w, "knn") and ok:
        w.knn(ops, sess.address())
    ok_jobs = [j for j in jobs if j is not None]
    ok_reruns = [j for j in reruns if j is not None]
    metrics = {
        "rows_per_s": w.rows / statistics.median(ok_jobs) if ok_jobs else 0.0,
        "resume_s": statistics.median(ok_reruns) if ok_reruns else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss.peak / 2 ** 20,
        # add-one estimate: never 0, and the raw counts are in the result
        "fail_ratio": (ops.failed + 1) / (ops.attempted + 1),
    }
    samples = {"job_s": quartiles(jobs), "rerun_s": quartiles(reruns),
               "setup_s": quartiles(setups), "job_walls": jobs,
               "rerun_walls": reruns, "setup_walls": setups,
               **{f"{p}_walls": walls for p, walls in parts.items()}}
    return metrics, samples


def traced(w, sess: Session, ops: Ops, trace_path: str) -> tuple[dict, dict]:
    from tracing import Tracer

    init_s = sess.start()
    if not warm_up(w, ops):
        return {}, {"error": "warm-up failed"}
    _, layers = ops.run("in-process layer costs", w.layers,
                        lambda l: (f"extract_text_bytes differs from the "
                                   f"generator text on {l['text_mismatches']}"
                                   " rows") if l.get("text_mismatches")
                        else None)
    if layers is None:
        return {}, {"error": "layer measurement failed"}
    untraced_wall = w.repeat(ops)["job"]
    tracer = Tracer()
    info = w.traced(tracer, ops, layers)
    knn_s = 0.0
    if hasattr(w, "knn"):
        with tracer.job_span("knn"):
            knn_s, _ = w.knn(ops, sess.address())
        info["jobs"].append("knn")
    tracer.dump(trace_path, info["jobs"])
    # one check per traced job: the in-process layer estimates fit inside
    # the executions they are laid into
    for job in info["jobs"]:
        ops.attempted += 1
        over = [o for o in tracer.overruns if o["job"] == job]
        if over:
            ops.failed += 1
            ops.errors.append(TRACE_CHECK + f"{job}: " + "; ".join(
                f"layer estimates {o['estimate_s']:.3f} s exceed "
                f"{o['span']} {o['span_s']:.3f} s" for o in over))
    main = tracer.breakdown(info["jobs"][0])
    us = layers["us"]
    m = {name: 0.0 for name in PER_LAYER}
    m.update({
        "io.read_s": layers["io.read_s"],
        "io.bytes_per_row": layers["io.bytes_per_row"],
        "ray.init_s": init_s,
        "ray.overhead_s": main["ray_overhead_s"],
        # 0 when the kNN operation failed or timed out: not measured
        "joins.knn_s": knn_s or 0.0,
    })
    for key, name in (("extract_text", "extract_text.us_per_row"),
                      ("page_parser", "page_parser.us_per_row"),
                      ("flagship.url_hash", "flagship.url_hash_us_per_row"),
                      ("tiling.assign", "tiling.assign_us_per_row"),
                      ("joins.pip", "joins.pip_us_per_row"),
                      ("s2.cover", "s2.cover_us_per_polygon"),
                      ("joins.knn", "joins.knn_us_per_row")):
        if key in us:
            m[name] = us[key]
    m.update({k: v for k, v in layers.items() if k in PER_LAYER})
    m.update({k: v for k, v in info.items() if k in PER_LAYER})
    if untraced_wall and info.get("wall_s"):
        m["trace.overhead_ratio"] = 1.0 - untraced_wall / info["wall_s"]
    samples = {"breakdown": {j: tracer.breakdown(j) for j in info["jobs"]},
               "untraced_job_s": untraced_wall,
               "traced_job_s": info.get("wall_s"),
               "overruns": tracer.overruns}
    return m, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "prclz_ray", "__init__.py")):
        log(f"no prclz_ray package next to {HERE}: run from a full checkout")
        return 2
    sys.path.insert(0, ROOT)
    sys.path.insert(0, HERE)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    import workloads
    if a.workload not in workloads.WORKLOADS:
        log(f"unknown workload {a.workload}; "
            f"choose from {sorted(workloads.WORKLOADS)}")
        return 2

    cache_root = os.path.join(ROOT, ".bench_cache")
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(cache_root, exist_ok=True)
    os.makedirs(tmp_root, exist_ok=True)
    os.environ["TMPDIR"] = tmp_root     # keep scratch files in the checkout
    nproc = _nproc()

    w = workloads.WORKLOADS[a.workload](cache_root, tmp_root, a.seed)
    t0 = time.perf_counter()
    inputs = w.prepare()
    gen_s = time.perf_counter() - t0
    spin_ratio, spin_s = host_probe(nproc)
    cpu0 = _cpu_times()
    import numpy
    import pyarrow
    import ray
    sess = Session(nproc, tmp_root)
    ops = Ops()
    try:
        if a.trace:
            trace_path = os.path.join(
                tmp_root, f"trace-{a.workload}-s{a.seed}.json")
            metrics, samples = traced(w, sess, ops, trace_path)
            units = PER_LAYER
        else:
            metrics, samples = untraced(w, sess, ops, a.seconds)
            units = END_TO_END
    finally:
        sess.close()
    cpu1 = _cpu_times()
    d = [b - c for b, c in zip(cpu1, cpu0)]
    steal = d[7] / max(1, sum(d)) if len(d) > 7 else 0.0
    # the known kNN hang is reported through fail_ratio, and an overrun of
    # the trace's layer estimates says the per-layer split is not to be
    # trusted, not that an output is wrong; every other failure means an
    # output could not be confirmed correct
    known_hang = f"{workloads.KNN_OP}: TimeoutError"
    correct = set(metrics) == set(units) and not [
        e for e in ops.errors
        if not e.startswith(known_hang) and not e.startswith(TRACE_CHECK)]
    context = {
        "workload": a.workload, "why": w.why, "seed": a.seed,
        "seconds": a.seconds, "trace": a.trace, "nproc": nproc,
        "ray": ray.__version__, "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__, "python": sys.version.split()[0],
        "git_commit": _git_commit(), "source_sha": _source_sha(),
        "inputs": inputs, "input_gen_s": gen_s,
        "host_spin_ratio": spin_ratio, "host_spin_s": spin_s,
        "cpu_steal_share": steal,
        "attempted": ops.attempted, "failed": ops.failed,
        "errors": ops.errors, "samples": samples,
    }
    result = {"correct": bool(correct), "attempted": ops.attempted,
              "failed": ops.failed,
              "metrics": {k: {"value": float(metrics.get(k, 0.0)),
                              "unit": u} for k, u in units.items()}}
    with open(os.path.join(tmp_root, "results.jsonl"), "a") as fh:
        fh.write(json.dumps({"context": context, "result": result}) + "\n")
    print(json.dumps({"context": context}, default=str))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
