"""Content-fingerprinted query-result cache.

A registry query is a pure function of its input directory, so its
result can be memoized on disk keyed by (query name, input content
fingerprint): re-running an expensive pipeline over unchanged inputs
becomes a parquet read, while ANY change to an input file (size or
mtime) misses to a fresh computation and evicts the stale entry
(``checkpoint.fingerprinted_dir``) — the same fingerprint
(``checkpoint.input_fingerprint``) the format-roundtrip queries key
their /tmp exports by (ADVICE r3: never key a cache by directory name
alone).

Writes are crash-safe: the result is published with
``checkpoint.publish_dir``, so the cache entry appears only once it is
complete and a killed run can never serve a partial result.
"""
from __future__ import annotations

import glob
import os

import pandas as pd

from .checkpoint import fingerprinted_dir, input_fingerprint, publish_dir


def cached_result(name: str, sf_dir: str, fn,
                  cache_root: str = "/tmp/prclz_ray_qcache"
                  ) -> pd.DataFrame:
    """Return ``fn(sf_dir)`` as a DataFrame, memoized under
    (name, fingerprint of the input dir's parquet files).  ``fn`` may
    return a DataFrame, a pyarrow Table, or a Ray Dataset."""
    fp = input_fingerprint(glob.glob(os.path.join(sf_dir, "*.parquet")))
    hit = fingerprinted_dir(os.path.join(cache_root, name), fp[:16])
    if os.path.exists(hit):
        return pd.read_parquet(os.path.join(hit, "result.parquet"))
    res = fn(sf_dir)
    if not isinstance(res, pd.DataFrame):
        res = res.to_pandas()
    publish_dir(hit, lambda tmp: res.to_parquet(
        os.path.join(tmp, "result.parquet"), index=False))
    return res
