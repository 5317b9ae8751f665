"""Convoy-mining benchmark: mines a fixed (m, k, eps) query list on one
workload and checks every answer against a reference miner.

    python3 perfbench/run.py --workload tdrive-lsmt --seed 1 --seconds 15 --trace 0

A run generates the workload's frame, builds the store at least
``SETUPS`` times (``setup_s`` is the median build), then one client
sends the query list back to back, pass after pass in a seeded order,
until ``--seconds`` have passed and the workload's ``min_passes`` are
done. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports per-layer metrics
from spans recorded around calls into each layer (see ``spans.py``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The run record (code digest,
versions, ``nproc``, seed, workload parameters, reference digest) is
written to ``perfbench/out/`` next to the metrics.
"""
from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The store is built at least SETUPS times and for at least SETUP_S
# seconds; setup_s is the median build.
SETUPS = 3
SETUP_S = 3.0

END_TO_END = {
    "setup_s": "s",
    "mine_s": "s",
    "query_s_p50": "s",
    "query_s_tail": "s",
    "points_read": "points",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail_level(n_queries: int, min_passes: int) -> float:
    """The tail's percentile level, fixed per workload: the highest level
    with at least ten samples beyond it in a run of ``min_passes`` passes,
    or 1 (the maximum) when such a run has ten samples or fewer. A level
    that followed the pass count of each run would jump between queries
    of very different cost as the machine's speed changes."""
    n = n_queries * min_passes
    return (n - 10) / n if n > 10 else 1.0


def latency_stats(by_query: dict, level: float) -> tuple[float, float]:
    """→ (p50, tail) over the per-query median latencies.

    Each query of the list is one point of the latency distribution,
    estimated by its median over the passes, so one slow pass moves
    neither statistic. The tail is the mean of the points from ``level``
    up (the conditional tail mean): a single query's median swings with
    the machine's speed, and the mean over the slow end of the list
    swings less.
    """
    medians = sorted(statistics.median(xs) for xs in by_query.values() if xs)
    if not medians:
        return 0.0, 0.0
    beyond = medians[math.ceil(level * len(medians)) - 1:]
    return statistics.median(medians), statistics.fmean(beyond)


def git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def versions() -> dict[str, str]:
    out = {"python": platform.python_version()}
    for pkg in ("numpy", "pandas", "duckdb", "pyspark"):
        try:
            out[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            out[pkg] = "absent"
    return out


def run(args, workdir: Path) -> tuple[dict, dict, list]:
    import numpy as np

    from reference import Reference, canonical, query_key
    from spans import Tracer, check_nesting, layer_metrics, patch
    from workloads import WORKLOADS, frame_digest, make_engine, nproc, peak_rss_mb

    w = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    frame = w.dataset.frame()
    digest = frame_digest(frame)
    ref = Reference(digest, frame)
    expected = {q: ref.expected(*q) for q in w.queries}
    # The seed decides the row order the store is loaded from.
    shuffled = frame.iloc[rng.permutation(len(frame))].reset_index(drop=True)

    tracer = Tracer()
    engine = make_engine(w, workdir, tracer)
    problems: list[str] = []
    failed = attempted = 0
    untraced: list[float] = []
    traced: list[float] = []
    by_query: dict[tuple, list[float]] = {q: [] for q in w.queries}
    points: list[int] = []
    layers: list[dict] = []
    span_log: list[list] = []
    try:
        start_s = engine.start()
        builds = []
        setup_end = perf_counter() + SETUP_S
        while len(builds) < SETUPS or perf_counter() < setup_end:
            builds.append(engine.build(shuffled))
        build_s = statistics.median(b[0] for b in builds)
        # The query with the fewest benchmark points warms caches; on a
        # store it runs on MeteredStore, whose count CountingStore must match.
        small = max(w.queries, key=lambda q: (q[1], q[0]))
        if w.engine == "spark":
            # The JVM compiles each query's plans on first use: every
            # query runs once before timing.
            for q in w.queries:
                engine.mine(*q)
            metered = None
        else:
            metered = engine.metered_rows(*small)

        deadline = perf_counter() + args.seconds
        while True:
            trace_pass = bool(args.trace) and len(untraced) > len(traced)
            order = rng.permutation(len(w.queries))
            restore = patch(tracer) if trace_pass else None
            tracer.enabled = trace_pass
            results = []
            t0 = perf_counter()
            for i in order:
                q = w.queries[i]
                sid = tracer.begin("query") if trace_pass else -1
                tq = perf_counter()
                try:
                    convoys, rows, attrs = engine.mine(*q)
                    err = None
                except Exception:
                    convoys, rows, attrs, err = None, 0, {}, traceback.format_exc()
                lat = perf_counter() - tq
                if sid >= 0:
                    tracer.end(sid, engine=w.engine, **attrs)
                results.append((q, lat, convoys, rows, err))
            wall = perf_counter() - t0
            tracer.enabled = False
            if restore is not None:
                restore()
                spans = tracer.take()
                problems.extend(check_nesting(spans))
                layers.append(layer_metrics(spans))
                span_log.append(spans)
                traced.append(wall)
            else:
                untraced.append(wall)

            pass_failed = 0
            for q, lat, convoys, rows, err in results:
                attempted += 1
                if q == small and metered is not None and err is None and rows != metered:
                    problems.append(f"CountingStore read {rows} rows, MeteredStore "
                                    f"{metered}, on {query_key(*q)}")
                if err is not None:
                    pass_failed += 1
                    print(f"query {query_key(*q)} raised:\n{err}", file=sys.stderr)
                elif canonical(convoys) != expected[q]:
                    pass_failed += 1
                    print(f"query {query_key(*q)}: {len(convoys)} convoys differ "
                          f"from the reference's {len(expected[q])}", file=sys.stderr)
                elif not trace_pass:
                    by_query[q].append(lat)
            failed += pass_failed
            if not pass_failed:
                points.append(sum(r[3] for r in results))
            if (perf_counter() >= deadline and len(untraced) >= w.min_passes
                    and (traced or not args.trace)):
                break

        rss = peak_rss_mb()
        if w.engine == "spark":
            rss += engine.jvm_peak_rss_mb()
    finally:
        engine.close()

    if len(set(points)) > 1:
        problems.append(f"points read differ between passes: {sorted(set(points))}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    # With no correct query there is nothing to time; the run reports
    # correct=false and zeros.
    level = tail_level(len(w.queries), w.min_passes)
    p50_s, tail_s = latency_stats(by_query, level)
    samples = sum(len(xs) for xs in by_query.values())
    tail_label = (f"mean from p{100 * level:.1f} up of the per-query medians over "
                  f"{len(untraced)} passes ({samples} samples)")
    record = {
        "workload": w.name,
        "engine": w.engine,
        "dataset": {"name": w.dataset.name, "params": w.dataset.params},
        "queries": [list(q) for q in w.queries],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_digest": src_digest(),
        "nproc": nproc(),
        "versions": versions(),
        "frame_digest": digest,
        "reference_digest": ref.digest_of(w.queries),
        "setups": len(builds),
        "query_s_median": {
            query_key(*q): statistics.median(by_query[q]) for q in w.queries if by_query[q]
        },
        "pass_s": {"untraced": untraced, "traced": traced},
        "query_samples": samples,
        "query_s_tail": tail_label,
        "error_rate": failed / attempted if attempted else 1.0,
        "problems": problems,
    }
    if args.trace:
        keys = layers[0].keys()
        metrics = {k: statistics.fmean(d[k] for d in layers) for k in keys}
        metrics.update({
            "stores.build_s": build_s,
            "stores.disk_bytes": builds[-1][1],
            "spark.session_s": start_s,
            "trace.mine_s": statistics.median(traced),
            "trace.untraced_mine_s": statistics.median(untraced),
            "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        })
    else:
        metrics = {
            "setup_s": start_s + build_s,
            "mine_s": statistics.median(untraced),
            "query_s_p50": p50_s,
            "query_s_tail": tail_s,
            "points_read": points[0] if points else 0,
            "peak_rss_mb": rss,
        }
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, record, span_log


def unit(name: str) -> str:
    from spans import UNITS

    return END_TO_END.get(name) or UNITS[name]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    # Everything the run writes, temporary files included, stays in the checkout.
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(workdir)
    try:
        result, record, span_log = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result["metrics"]
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {unit(name)}")
    print(f"error_rate: {record['error_rate']:.6g} fraction "
          f"({result['failed']} of {result['attempted']} queries)")
    print(f"query samples: {record['query_samples']}, tail: {record['query_s_tail']}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps({"record": record, **result}, indent=1) + "\n")
    if span_log:
        # One list per traced pass: [id, parent, name, start_s, end_s, attrs].
        with gzip.open(out / name.replace(".json", "-spans.json.gz"), "wt") as f:
            json.dump(span_log, f)
    result["metrics"] = {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
