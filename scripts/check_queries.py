"""Local mimic of the driver's correctness gate: run every queries() entry
at the given sf, run its oracle_sql in DuckDB, compare row count + sorted
column names + order-insensitive value hash.

Usage: python scripts/check_queries.py [sf_dir] [query ...]
       python scripts/check_queries.py [sf_dir] --shards 4 --json out.json

--shards K fans the registry out over K subprocesses (each with its own
isolated Ray session and DuckDB connection, round-robin over the query
list so long/short queries interleave) and merges the per-shard JSON —
the sweep then takes the longest shard's wall time instead of the sum
of all queries' times.  Per-shard Ray sessions default to 8 CPUs so 4
shards saturate a 32-CPU host without oversubscribing.
"""
import hashlib
import sys
import time

import duckdb
import pandas as pd

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_df(res) -> pd.DataFrame:
    import pyarrow as pa
    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)].copy()
    rows = []
    for tup in df.itertuples(index=False):
        rows.append("|".join(_norm(v) for v in tup))
    rows.sort()
    return hashlib.md5("\n".join(rows).encode()).hexdigest()


def _norm(v) -> str:
    if v is None or v != v:
        return "NULL"
    if isinstance(v, float):
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
        return f"{v:.6f}"
    return str(v)


def _repo_root() -> str:
    import os
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_sharded(sf_dir, only, n_shards, json_path):
    """Parent of --shards mode: split the query list round-robin across
    n_shards subprocesses (each owns its own Ray session), merge JSONs."""
    import json
    import os
    import subprocess
    import tempfile

    sys.path.insert(0, _repo_root())
    import __ray_entry__ as entrymod
    names = [n for n in entrymod.queries() if not only or n in only]
    shards = [names[i::n_shards] for i in range(n_shards)]
    shards = [s for s in shards if s]
    t0 = time.time()
    procs, paths, errfiles = [], [], []
    for i, shard in enumerate(shards):
        fd, p = tempfile.mkstemp(prefix=f"cq_shard{i}_", suffix=".json")
        os.close(fd)
        paths.append(p)
        ef = open(p + ".stderr", "w")
        errfiles.append(ef)
        procs.append(subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), sf_dir,
             *shard, "--json", p],
            stdout=subprocess.PIPE,
            stderr=ef, text=True,
            env={**os.environ, "RAY_GRAFT_CPUS": os.environ.get(
                "CHECK_SHARD_CPUS", "8")}))
    merged, crashed = {}, []
    for i, (pr, p) in enumerate(zip(procs, paths)):
        out, _ = pr.communicate()
        errfiles[i].close()
        for line in out.splitlines():
            if line.startswith(("PASS ", "FAIL ", "ok?  ")):
                print(line)
        try:
            with open(p) as f:
                res = json.load(f)["queries"]
        except Exception as e:
            # per-QUERY retry queue (round-4 deferred #3): a crashed
            # shard's completed queries survive in its progress JSONL,
            # so only the genuinely unfinished tail re-runs serially
            res = {}
            try:
                with open(p + ".progress") as f:
                    for line in f:
                        rec = json.loads(line)
                        res[rec["name"]] = rec["result"]
            except Exception:
                pass
            lost = [q for q in shards[i] if q not in res]
            print(f"RETRY <shard {i}>: crashed before writing its "
                  f"result ({e}) — {len(res)} queries recovered from "
                  f"its progress log, {len(lost)} queued for a serial "
                  f"retry pass")
            crashed.extend(lost)
        merged.update(res)
        for ext in ("", ".progress", ".stderr"):
            if os.path.exists(p + ext):
                os.unlink(p + ext)
    # one serial retry for queries whose shard died (Ray core-worker
    # crashes under concurrent local clusters are rare but real)
    crashed += [q for i, shard in enumerate(shards) for q in shard
                if q not in merged and q not in crashed]
    if crashed:
        fd, p = tempfile.mkstemp(prefix="cq_retry_", suffix=".json")
        os.close(fd)
        pr = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), sf_dir,
             *crashed, "--json", p],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
            env={**os.environ, "RAY_GRAFT_CPUS": os.environ.get(
                "CHECK_SHARD_CPUS", "8")})
        out, _ = pr.communicate()
        for line in out.splitlines():
            if line.startswith(("PASS ", "FAIL ", "ok?  ")):
                print(line)
        try:
            with open(p) as f:
                merged.update(json.load(f)["queries"])
            os.unlink(p)
        except Exception as e:
            print(f"FAIL <retry shard>: unreadable result ({e})")
        for q in crashed:
            if q not in merged:
                merged[q] = {"status": "fail",
                             "err": "shard crashed twice"}
    n_pass = sum(1 for r in merged.values()
                 if r["status"] != "fail")
    n_fail = len(merged) - n_pass
    print(f"\n{n_pass} pass, {n_fail} fail "
          f"({len(shards)} shards, {time.time() - t0:.0f}s wall)")
    if json_path:
        with open(json_path, "w") as f:
            json.dump({"sf_dir": sf_dir, "n_pass": n_pass,
                       "n_fail": n_fail, "shards": len(shards),
                       "queries": merged}, f, indent=1)
    sys.exit(1 if n_fail else 0)


def main():
    args = sys.argv[1:]
    json_path = None
    if "--json" in args:
        i = args.index("--json")
        json_path = args[i + 1]
        args = args[:i] + args[i + 2:]
    n_shards = 0
    if "--shards" in args:
        i = args.index("--shards")
        n_shards = int(args[i + 1])
        args = args[:i] + args[i + 2:]
    sf_dir = args[0] if args else "/root/testdata/sf0.01"
    only = set(args[1:])
    if n_shards > 1:
        run_sharded(sf_dir, only, n_shards, json_path)
        return
    results = {}
    import ray
    if not ray.is_initialized():
        import os
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "8")),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, _repo_root())
    import __ray_entry__ as entrymod
    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    # incremental progress log: one JSONL line per completed query, so
    # a parent sharding over this process can recover finished work if
    # the Ray session dies mid-shard (round-4 deferred #3)
    import json as _json
    prog = open(json_path + ".progress", "w") if json_path else None

    def _record(name, result):
        results[name] = result
        if prog is not None:
            prog.write(_json.dumps({"name": name, "result": result})
                       + "\n")
            prog.flush()

    n_pass = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            mine = to_df(fn(sf_dir))
        except Exception as e:
            print(f"FAIL {name}: ray error {type(e).__name__}: {e}")
            _record(name, {"status": "fail",
                           "err": f"{type(e).__name__}: {e}"})
            n_fail += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok?  {name}: rows={len(mine)} cols={sorted(mine.columns)} ({dt:.1f}s, rows-only)")
            _record(name, {"status": "no_oracle", "rows": len(mine),
                           "sec": round(dt, 2)})
            n_pass += 1
            continue
        try:
            orc = con.execute(oracles[name]).fetchdf()
        except Exception as e:
            print(f"FAIL {name}: oracle error {e}")
            _record(name, {"status": "fail", "err": f"oracle: {e}"})
            n_fail += 1
            continue
        problems = []
        if len(mine) != len(orc):
            problems.append(f"rows {len(mine)} vs {len(orc)}")
        if sorted(mine.columns) != sorted(orc.columns):
            problems.append(f"cols {sorted(mine.columns)} vs {sorted(orc.columns)}")
        elif value_hash(mine) != value_hash(orc):
            problems.append("value hash mismatch")
        if problems:
            print(f"FAIL {name}: {', '.join(problems)} ({dt:.1f}s)")
            _record(name, {"status": "fail",
                           "err": ", ".join(problems)})
            n_fail += 1
        else:
            print(f"PASS {name}: rows={len(mine)} ({dt:.1f}s)")
            _record(name, {"status": "pass", "rows": len(mine),
                           "sec": round(dt, 2)})
            n_pass += 1
    print(f"\n{n_pass} pass, {n_fail} fail")
    if json_path:
        import json
        import os
        with open(json_path, "w") as f:
            json.dump({"sf_dir": sf_dir, "n_pass": n_pass,
                       "n_fail": n_fail, "queries": results}, f, indent=1)
        if prog is not None:
            prog.close()
            # the progress log only matters if this process dies
            # mid-run; a completed run cleans up after itself
            if os.path.exists(json_path + ".progress"):
                os.unlink(json_path + ".progress")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()
