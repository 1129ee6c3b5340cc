"""Span recording for the traced run.

Spans are recorded from the benchmark's side only: around the benchmark's
own calls into the engine, and around driver-side ``Dataset.materialize``
/ ``Dataset.to_pandas`` calls and a few public engine functions, which are
wrapped for the duration of one traced job.  Spans live in memory and are
written out once when the run ends.

Work that runs inside Ray worker processes cannot be seen from the driver,
so each layer's in-process cost (µs/row measured in one process, times the
rows the execution handled) is laid into the execution span that ran it as
an *attributed* child span.  A span's self time is its duration minus the
part of it its children cover; what is left of the job after the
attributed layer costs is Ray's own overhead (scheduling, object store,
shuffle), so per job: sum of layer self times + ray overhead = wall time,
by construction.  What can go wrong is the attribution itself: when the
in-process estimates add up to more than the execution span they are laid
into, they are clipped to it, and the overrun is recorded in
``Tracer.overruns`` so the run can count it as a failed check.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self.job: str | None = None
        self.overruns: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": next(self._ids), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "job": self.job, "start": time.perf_counter(), "end": None,
               **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def job_span(self, job: str):
        self.job = job
        try:
            with self.span("job") as rec:
                yield rec
        finally:
            self.job = None

    def attribute(self, parent: dict, costs: list[tuple[str, float]]):
        """Lay in-process layer costs back to back from ``parent``'s start,
        clipped to its end, as attributed child spans.  Costs that do not
        fit are recorded in ``overruns``."""
        t = parent["start"]
        total = sum(dur for _, dur in costs)
        if total > parent["end"] - parent["start"]:
            self.overruns.append({"job": parent["job"],
                                  "span": parent["name"],
                                  "estimate_s": total,
                                  "span_s": parent["end"] - parent["start"]})
        for name, dur in costs:
            s, e = min(t, parent["end"]), min(t + dur, parent["end"])
            self.spans.append({"id": next(self._ids), "name": name,
                               "parent": parent["id"], "job": parent["job"],
                               "start": s, "end": e, "attributed": True,
                               "estimate_s": dur})
            t += dur

    def job_spans(self, job: str) -> list[dict]:
        return [s for s in self.spans if s["job"] == job]

    def self_times(self, job: str) -> dict[int, float]:
        spans = self.job_spans(job)
        kids: dict[int, list[dict]] = {}
        for s in spans:
            kids.setdefault(s["parent"], []).append(s)
        out = {}
        for s in spans:
            covered, cur_s, cur_e = 0.0, None, None
            for c in sorted(kids.get(s["id"], []), key=lambda c: c["start"]):
                cs, ce = max(c["start"], s["start"]), min(c["end"], s["end"])
                if ce <= cs:
                    continue
                if cur_e is None or cs > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = cs, ce
                else:
                    cur_e = max(cur_e, ce)
            if cur_e is not None:
                covered += cur_e - cur_s
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def breakdown(self, job: str) -> dict:
        """Layer self times (attributed spans), Ray overhead (self time of
        every driver-side span) and the job's wall time."""
        st = self.self_times(job)
        spans = self.job_spans(job)
        wall = next(s["end"] - s["start"] for s in spans if s["name"] == "job")
        layers: dict[str, float] = {}
        overhead = 0.0
        for s in spans:
            if s.get("attributed"):
                layers[s["name"]] = layers.get(s["name"], 0.0) + st[s["id"]]
            else:
                overhead += st[s["id"]]
        return {"wall_s": wall, "layers_s": layers, "ray_overhead_s": overhead}

    def named(self, job: str, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.job_spans(job)
                   if s["name"] == name)

    def dump(self, path: str, jobs: list[str]):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "jobs": {j: self.breakdown(j) for j in jobs},
                       "overruns": self.overruns},
                      fh, indent=1, default=str)


def executed_ops(ds, since: float) -> list[str]:
    """Names of the operators in ``ds``'s stats that started at or after
    ``since`` (perf_counter clock), i.e. the ones this execution ran."""
    out = []

    def walk(s):
        out.extend(o.operator_name for o in s.operators_stats
                   if o.earliest_start_time >= since)
        for p in s.parents:
            walk(p)
    walk(ds._get_stats_summary())
    return out


@contextlib.contextmanager
def instrument(tracer: Tracer, functions=()):
    """Wrap driver-side Dataset executions and the given
    ``(module, attr, span_name)`` engine functions with spans."""
    from ray.data import Dataset

    patches = []

    def wrap_exec(method):
        orig = getattr(Dataset, method)

        def wrapper(self, *a, **k):
            with tracer.span("exec." + method) as rec:
                t0 = time.perf_counter()
                out = orig(self, *a, **k)
            rec["ops"] = executed_ops(out if method == "materialize"
                                      else self, t0)
            if method == "materialize":
                rec["blocks"] = out.num_blocks()
                rec["rows"] = out.count()
            return out
        patches.append((Dataset, method, orig))
        setattr(Dataset, method, wrapper)

    def wrap_fn(module, attr, span_name):
        orig = getattr(module, attr)

        def wrapper(*a, **k):
            with tracer.span(span_name):
                return orig(*a, **k)
        patches.append((module, attr, orig))
        setattr(module, attr, wrapper)

    for m in ("materialize", "to_pandas"):
        wrap_exec(m)
    for f in functions:
        wrap_fn(*f)
    try:
        yield
    finally:
        for obj, attr, orig in reversed(patches):
            setattr(obj, attr, orig)
