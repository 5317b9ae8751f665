"""Tracing from outside the program: a span recorder, a counting store
proxy, and wrappers patched over the public functions of each layer.

Nothing here edits ``src/``. Spans are recorded at the layer boundaries
the benchmark can see from outside:

* ``query``              one mining call (``k2hop`` / ``k2hop_spark``);
* ``phase.<p>``          the phase functions ``repro.core.k2hop`` calls,
                         named as in ``K2HopResult.phase_seconds``;
* ``spark.<p>``          ``collect_cluster_sets`` (benchmark) and
                         ``dcm_merge`` / ``extend`` / ``validate``
                         (driver) as imported by ``repro.core.k2hop_spark``;
* ``store.<kind>``       every public store method, via :class:`CountingStore`
                         (``snapshot``, ``points``, or ``other``);
* ``cluster.<size>``     every ``meps_clusters`` call, split at n = 32.

A span is ``[id, parent, name, start, end, attrs]``; its parent is the
span open when it began, so all spans of one query share the query span
as their root. Self time is a span's duration minus its children's.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from repro.core import clustering

#: meps_clusters calls on at most this many points count as "small"
SMALL_N = 32

#: phase functions imported into repro.core.k2hop → phase name
K2HOP_PHASES = {
    "benchmark_points": "benchmark",
    "benchmark_cluster_sets": "benchmark",
    "hop_windows": "candidate",
    "candidate_clusters": "candidate",
    "hwmt": "hwmt",
    "dcm_merge": "merge",
    "extend_right": "extend-right",
    "extend_left": "extend-left",
    "validate": "validation",
}
PHASES = list(dict.fromkeys(K2HOP_PHASES.values()))

#: functions imported into repro.core.k2hop_spark → Spark span name
SPARK_PARTS = {
    "collect_cluster_sets": "benchmark",
    "dcm_merge": "driver",
    "extend": "driver",
    "validate": "driver",
}

STORE_KINDS = ("snapshot", "points", "other")


def _units() -> dict[str, str]:
    units: dict[str, str] = {"stores.build_s": "s", "stores.disk_bytes": "bytes"}
    for kind in STORE_KINDS:
        units.update({f"stores.{kind}.calls": "count", f"stores.{kind}.rows": "rows",
                      f"stores.{kind}.s": "s"})
    units["stores.rows_per_call"] = "rows/call"
    for size in ("large", "small"):
        units.update({f"clustering.{size}.calls": "count",
                      f"clustering.{size}.points": "points", f"clustering.{size}.s": "s"})
    for p in PHASES:
        units.update({f"phase.{p}.s": "s", f"phase.{p}.self_s": "s", f"phase.{p}.rows": "rows"})
    units["k2hop.self_s"] = "s"
    units.update({"candidate.groups": "count", "hwmt.windows": "count",
                  "hwmt.windows_spanning": "count", "hwmt.span_ratio": "ratio",
                  "validate.in": "count", "validate.fc": "count", "validate.fc_ratio": "ratio"})
    units.update({"spark.session_s": "s", "spark.benchmark_s": "s", "spark.driver_s": "s",
                  "spark.dataflow_s": "s", "spark.jobs": "count", "spark.stages": "count",
                  "spark.tasks": "count"})
    units.update({"trace.mine_s": "s", "trace.untraced_mine_s": "s", "trace.overhead_s": "s"})
    return units


#: every per-layer metric a traced run reports, with its unit
UNITS = _units()


class Tracer:
    """In-memory span recorder; ``enabled`` is False outside traced passes."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, name, perf_counter(), 0.0, {}])
        self._stack.append(sid)
        return sid

    def end(self, sid: int, **attrs) -> None:
        span = self.spans[sid]
        span[4] = perf_counter()
        span[5].update(attrs)
        # Also closes spans left open by a call that raised.
        del self._stack[self._stack.index(sid):]

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start afresh."""
        spans, self.spans = self.spans, []
        return spans


def _rows(out) -> int:
    """Rows in a store read result: (oids, ...) tuples, arrays or frames."""
    if isinstance(out, tuple) and out and isinstance(out[0], np.ndarray):
        return len(out[0])
    if isinstance(out, np.ndarray) or hasattr(out, "columns"):
        return len(out)
    return 0


class CountingStore:
    """Delegates every public method to a store and counts the rows each
    call returns, by method kind (``snapshot``, ``points``, ``other``).

    Methods are wrapped generically, so a read method a store gains later
    (a range read, say) is counted as ``other`` with no benchmark edit.
    """

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.calls = dict.fromkeys(STORE_KINDS, 0)
        self.rows = dict.fromkeys(STORE_KINDS, 0)

    @property
    def rows_read(self) -> int:
        return sum(self.rows.values())

    def __getattr__(self, name: str):
        attr = getattr(self._inner, name)
        if name.startswith("_") or not callable(attr):
            return attr
        kind = name if name in STORE_KINDS else "other"
        tracer, calls, rows = self._tracer, self.calls, self.rows

        def call(*args, **kwargs):
            sid = tracer.begin("store." + kind) if tracer.enabled else -1
            out = attr(*args, **kwargs)
            n = _rows(out)
            calls[kind] += 1
            rows[kind] += n
            if sid >= 0:
                tracer.end(sid, rows=n)
            return out

        setattr(self, name, call)  # later lookups skip __getattr__
        return call


def _traced(fn, name: str, tracer: Tracer, attrs):
    def wrapper(*args, **kwargs):
        sid = tracer.begin(name)
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            tracer.end(sid, **attrs(args, out))

    wrapper.__wrapped__ = fn
    return wrapper


def _phase_attrs(fname: str):
    if fname == "candidate_clusters":
        return lambda args, out: {"groups": len(out or ())}
    if fname == "hwmt":
        return lambda args, out: {"windows": 1, "spanning": int(bool(out))}
    if fname == "validate":
        return lambda args, out: {"in": len(args[1]), "fc": len(out or ())}
    return lambda args, out: {}


def patch(tracer: Tracer):
    """Wrap each layer's public functions with span recorders.

    Returns an ``undo`` callable that restores the originals. Every
    ``repro`` module attribute that *is* ``meps_clusters`` is wrapped, so
    the kernel is traced whichever module calls it.
    """
    undo: list[tuple[object, str, object]] = []

    def swap(module, attr: str, new) -> None:
        undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    kernel = clustering.meps_clusters

    def cluster(oids, xy, *args, **kwargs):
        size = "small" if len(oids) <= SMALL_N else "large"
        sid = tracer.begin("cluster." + size)
        try:
            return kernel(oids, xy, *args, **kwargs)
        finally:
            tracer.end(sid, points=len(oids))

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro" or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is kernel:
                swap(module, attr, cluster)

    k2hop_mod = sys.modules.get("repro.core.k2hop")
    if k2hop_mod is not None:
        for fname, phase in K2HOP_PHASES.items():
            fn = getattr(k2hop_mod, fname)
            swap(k2hop_mod, fname, _traced(fn, "phase." + phase, tracer, _phase_attrs(fname)))
    spark_mod = sys.modules.get("repro.core.k2hop_spark")
    if spark_mod is not None:
        for fname, part in SPARK_PARTS.items():
            fn = getattr(spark_mod, fname)
            swap(spark_mod, fname, _traced(fn, "spark." + part, tracer, lambda a, o: {}))

    def restore() -> None:
        for module, attr, old in reversed(undo):
            setattr(module, attr, old)

    return restore


def check_nesting(spans: list[list]) -> list[str]:
    """Structural checks: every span lies inside its parent, phase and
    Spark spans sit directly under a query span, store reads and
    clustering sit inside a phase of a query, and no self time is < 0."""
    problems: list[str] = []
    child_s: dict[int, float] = defaultdict(float)
    for sid, parent, name, start, end, _ in spans:
        if name == "query":
            if parent != -1:
                problems.append(f"query span {sid} has a parent")
            continue
        if parent == -1:
            problems.append(f"{name} span {sid} has no parent")
            continue
        p = spans[parent]
        if start < p[3] or end > p[4]:
            problems.append(f"{name} span {sid} leaves its parent {p[2]}")
        child_s[parent] += end - start
        if name.startswith(("phase.", "spark.")) and p[2] != "query":
            problems.append(f"{name} span {sid} is under {p[2]}, not a query")
        chain = [parent]
        while spans[chain[-1]][1] != -1:
            chain.append(spans[chain[-1]][1])
        if spans[chain[-1]][2] != "query":
            problems.append(f"{name} span {sid} is outside any query")
        # Reads and clustering happen inside a phase; only metadata calls
        # such as time_range may sit directly under the query.
        if name in ("store.snapshot", "store.points") or name.startswith("cluster."):
            if not any(spans[a][2].startswith(("phase.", "spark.")) for a in chain):
                problems.append(f"{name} span {sid} is outside any phase")
    for sid, _, name, start, end, _ in spans:
        if end - start - child_s[sid] < -1e-9:
            problems.append(f"{name} span {sid} has negative self time")
    return problems


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals over one traced pass of the query list."""
    dur = {s[0]: s[4] - s[3] for s in spans}
    child_s: dict[int, float] = defaultdict(float)
    for sid, parent, *_ in spans:
        if parent >= 0:
            child_s[parent] += dur[sid]

    def phase_of(sid: int) -> str | None:
        while sid >= 0:
            name = spans[sid][2]
            if name.startswith("phase."):
                return name[len("phase."):]
            sid = spans[sid][1]
        return None

    # Keys set from outside the spans (build, disk, session, trace) are
    # filled in by the caller.
    out = dict.fromkeys(UNITS, 0.0)
    spark_query_s = 0.0
    for sid, parent, name, _start, _end, attrs in spans:
        d = dur[sid]
        kind, _, sub = name.partition(".")
        if kind == "store":
            out[f"stores.{sub}.calls"] += 1
            out[f"stores.{sub}.rows"] += attrs.get("rows", 0)
            out[f"stores.{sub}.s"] += d
            p = phase_of(parent)
            if p is not None:
                out[f"phase.{p}.rows"] += attrs.get("rows", 0)
        elif kind == "cluster":
            out[f"clustering.{sub}.calls"] += 1
            out[f"clustering.{sub}.points"] += attrs["points"]
            out[f"clustering.{sub}.s"] += d
        elif kind == "phase":
            out[f"phase.{sub}.s"] += d
            out[f"phase.{sub}.self_s"] += d - child_s[sid]
            out["candidate.groups"] += attrs.get("groups", 0)
            out["hwmt.windows"] += attrs.get("windows", 0)
            out["hwmt.windows_spanning"] += attrs.get("spanning", 0)
            out["validate.in"] += attrs.get("in", 0)
            out["validate.fc"] += attrs.get("fc", 0)
        elif kind == "spark":
            out[f"spark.{sub}_s"] += d
        elif name == "query":
            if attrs.get("engine") == "spark":
                spark_query_s += d
                for key in ("jobs", "stages", "tasks"):
                    out[f"spark.{key}"] += attrs.get(key, 0)
            else:
                out["k2hop.self_s"] += d - child_s[sid]
    out["spark.dataflow_s"] = spark_query_s - out["spark.benchmark_s"] - out["spark.driver_s"]
    calls = sum(out[f"stores.{k}.calls"] for k in STORE_KINDS)
    rows = sum(out[f"stores.{k}.rows"] for k in STORE_KINDS)
    out["stores.rows_per_call"] = rows / calls if calls else 0.0
    out["hwmt.span_ratio"] = (
        out["hwmt.windows_spanning"] / out["hwmt.windows"] if out["hwmt.windows"] else 0.0
    )
    out["validate.fc_ratio"] = (
        out["validate.fc"] / out["validate.in"] if out["validate.in"] else 0.0
    )
    return dict(out)
