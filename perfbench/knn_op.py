"""kNN operation of the geojoin_tiled workload, run as a second driver.

    python3 knn_op.py <ray address> <points dir> <centroids.parquet> <k> <out>

Joins the benchmark's running Ray cluster, feeds ``knn_join`` from
``read_parquet`` exactly as a user would, and writes (pid, nn_id, nn_rank)
to ``<out>``.  The parent kills this process when it overruns its timeout;
Ray then tears down the job's actors, so the parent's session survives.
"""
import os
import sys

os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")


def main(address, points_dir, cents_path, k, out_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    ray.init(address=address, logging_level="ERROR", log_to_driver=False)
    rd.DataContext.get_current().enable_progress_bars = False
    from prclz_ray.stages.joins import knn_join

    joined = knn_join(rd.read_parquet(points_dir), pq.read_table(cents_path),
                      k=int(k), id_col="fid")
    t = pa.concat_tables(ray.get(joined.to_arrow_refs()))
    pq.write_table(t.select(["pid", "nn_id", "nn_rank"]), out_path)
    ray.shutdown()


if __name__ == "__main__":
    main(*sys.argv[1:6])
