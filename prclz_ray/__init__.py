"""prclz_ray — a Ray-Data-native spatial-join + tiling engine.

Brand-new engine (not a port) with the query/data-processing capabilities of
``mansueto-institute/prclz``: street-block extraction, parcel tessellation,
k-complexity (weak-dual depth), Steiner-tree reblocking — re-expressed as
Ray Data pipelines over Arrow batches, tiled by S2 cells, driven over a
Common-Crawl-style ``pages`` Parquet corpus, plus the large-scale
training-data operators (dedup, similarity search, text analysis) such a
corpus needs.

Layout:
  geom/      NumPy geometry kernels (WKB, predicates, STRtree, voronoi, ...)
  index/     S2 cell encode + tiling / skew utilities
  graph/     per-block graph kernels (planar faces / weak dual, reblock Steiner)
  stages/    Ray Data task stages, one per-worker state cache (extract, joins, dedup, ...)
  runtime/   checkpoint manifest, skew plan
  io/        schemas + deterministic synthetic-fixture generators
  pipelines/ end-to-end pipelines and the driver-facing query registry
"""

__version__ = "0.1.0"

# engine-wide log policy: drop Ray Data's per-empty-partition schema
# chatter (correct blocks, pure noise at 10^4 tasks) — see loghygiene
from .runtime import loghygiene as _loghygiene  # noqa: E402

_loghygiene.install()
