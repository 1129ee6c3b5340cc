"""Per-worker stage state for task-based map_batches — the engine's one
state mechanism.

Every stateful stage in the engine holds cheap state: compiled regexes, a
broadcast STRtree pack, a kNN grid, a small lookup table fetched from the
object store. Such a stage is a plain task-based ``map_batches`` whose
function builds its state once per worker PROCESS through
``worker_cached`` and reuses it for every later batch in that process.

No stage uses an actor pool. A pool re-spawns its actors per dataset
execution, puts their start-up on the critical path of every run, and its
minimum actor holds a CPU for the whole execution: on a 1-CPU session that
starves the upstream read task and the pipeline never produces a row. Plain
tasks fuse with the read (leave ``batch_size`` unset so that read→map
fusion still happens) and run at full cluster width.

Trade-off: broadcast state is held once per worker process, not once per
pool actor; callers bound its size by ``BROADCAST_LIMIT_BYTES``.

``BROADCAST_LIMIT_BYTES`` is the engine's one answer to "does this side fit
one worker?": every broadcast-or-shuffle and single-pass-or-rounds choice
(``pip_join_auto``, the graph, dedup and text stages, the flagship's dup
map) compares its side's size against it, on the driver, and takes the
shuffled path past it.  Read it at call time as ``util.BROADCAST_LIMIT_BYTES``
(never a name import), so that setting the module attribute — a test's
``monkeypatch.setattr(util, "BROADCAST_LIMIT_BYTES", 0)`` forces every
fallback — reaches every decision.
"""
from __future__ import annotations

#: bytes a broadcast (or single-task) side may take before the stage shuffles
BROADCAST_LIMIT_BYTES = 64 << 20

_WORKER_STATE: dict = {}


def worker_cached(key, build):
    """Return the state stored under ``key`` in this worker process,
    calling ``build()`` on the first use.  ``key`` is ``(kind, ...)`` or a
    bare kind; building a new key evicts every older entry of the same
    kind, so a long-lived worker keeps only the newest state per stage
    kind (per-run ObjectRef keys would otherwise accumulate one entry per
    pipeline run)."""
    obj = _WORKER_STATE.get(key)
    if obj is None:
        kind = key[0] if isinstance(key, tuple) else key
        for k in [k for k in _WORKER_STATE
                  if (k[0] if isinstance(k, tuple) else k) == kind]:
            del _WORKER_STATE[k]
        obj = _WORKER_STATE[key] = build()
    return obj


def cached_callable(cls, **kwargs):
    """A pickleable function for map_batches that constructs ``cls(**kwargs)``
    once per worker process (via ``worker_cached``, kind = the class) and
    applies it per batch.  Every input of the state must be a kwarg: the
    cache key is the class plus the kwargs' reprs."""
    key = ((cls.__module__, cls.__qualname__),
           tuple(sorted((k, repr(v)) for k, v in kwargs.items())))

    def fn(batch):
        return worker_cached(key, lambda: cls(**kwargs))(batch)

    return fn
