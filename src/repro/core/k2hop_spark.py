"""k/2-hop as a Spark DataFrame dataflow — the paper's "parallelize with
Apache Spark" future work, realized.

The distributed structure follows the repro mapping (scan/filter/groupBy
over trajectory data partitioned by key timestamps):

1. **Benchmark clustering** — ``df.filter(t ∈ B)`` (a Catalyst scan of
   ~2·|DB|/k of the data) then per-snapshot DBSCAN via
   ``groupBy("t").applyInPandas``.
2. **Candidate clusters** — the benchmark cluster sets are tiny (convoys
   are rare), so the set-wise intersections run on the driver.
3. **Pruned hop-window read** — a (window, oid) candidate table is
   joined against the trajectory table (``oid`` equi-join + timestamp
   range predicate), which is exactly the "prune objects with map/
   filter" step: Catalyst plans a shuffle join that touches only
   candidate objects inside their windows.
4. **HWMT fan-out** — ``groupBy(window).applyInPandas`` runs the
   sequential HWMT per window (windows are independent, the property
   the paper highlights for distribution).
5. **Merge / extend / validate** — driver-side over a second pruned
   read restricted to the objects of the maximal spanning convoys.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StringType, StructField, StructType

from repro.core.benchmarks import benchmark_points, candidate_clusters, hop_windows
from repro.core.clustering import check_params
from repro.core.convoy import Convoy
from repro.core.extend import extend
from repro.core.hwmt import hwmt
from repro.core.merge import dcm_merge
from repro.core.spark_cluster import collect_cluster_sets, snapshot_clusters
from repro.core.validate import validate
from repro.stores import FileStore

SPANNING_SCHEMA = StructType(
    [
        StructField("window", LongType()),
        StructField("ts", LongType()),
        StructField("te", LongType()),
        StructField("objs", StringType()),  # JSON int list
    ]
)


@dataclass
class K2HopSparkResult:
    convoys: list[Convoy]
    points_total: int
    points_scanned: int
    n_spanning: int
    n_maximal_spanning: int

    @property
    def pruning_pct(self) -> float:
        if not self.points_total:
            return 0.0
        return 100.0 * (1.0 - self.points_scanned / self.points_total)


def k2hop_spark(
    spark: SparkSession, df: DataFrame, m: int, k: int, eps: float
) -> K2HopSparkResult:
    """Distributed k/2-hop over a (t, oid, x, y) DataFrame."""
    check_params(eps, m)  # on the driver, before any Spark job
    df = df.select("t", "oid", "x", "y")
    total = df.count()
    ts, te = df.agg(F.min("t"), F.max("t")).first()
    bpts = benchmark_points(int(ts), int(te), k)

    # --- 1. benchmark snapshots: distributed scan + per-t clustering.
    bench_df = df.filter(F.col("t").isin([int(b) for b in bpts]))
    n_bench = bench_df.count()
    csets = collect_cluster_sets(snapshot_clusters(bench_df, m, eps))

    # --- 2. candidate clusters per hop-window (driver; tiny).
    windows = hop_windows(bpts)
    ccs = {
        i: candidate_clusters(csets.get(a, []), csets.get(b, []), m)
        for i, (a, b) in enumerate(windows)
    }

    # --- 3. pruned read: candidate (window, group, oid) join.
    cand_rows = [
        (i, gi, int(oid), int(windows[i][0]), int(windows[i][1]))
        for i, cc in ccs.items()
        for gi, group in enumerate(cc)
        for oid in group
    ]
    spanning_rows: list = []
    n_window_points = 0
    if cand_rows:
        cand = spark.createDataFrame(
            pd.DataFrame(
                cand_rows, columns=["window", "grp", "oid", "w_lo", "w_hi"]
            )
        )
        pruned = df.join(cand, on="oid").where(
            (F.col("t") > F.col("w_lo")) & (F.col("t") < F.col("w_hi"))
        )
        n_window_points = pruned.count()

        def _mine(pdf: pd.DataFrame) -> pd.DataFrame:
            w = int(pdf["window"].iloc[0])
            lo, hi = int(pdf["w_lo"].iloc[0]), int(pdf["w_hi"].iloc[0])
            cc = [
                frozenset(int(o) for o in grp["oid"].unique())
                for _, grp in pdf.groupby("grp")
            ]
            store = FileStore(pdf[["t", "oid", "x", "y"]].drop_duplicates(["t", "oid"]))
            found = hwmt(store, [(lo, hi)], [cc], m, eps)[0]
            return pd.DataFrame(
                [
                    (w, v.ts, v.te, json.dumps(sorted(v.objs)))
                    for v in found
                ],
                columns=["window", "ts", "te", "objs"],
            )

        spanning_rows = (
            pruned.groupBy("window")
            .applyInPandas(_mine, SPANNING_SCHEMA)
            .collect()
        )

    # Windows with an empty interior (k = 2, 3) span by definition.
    per_window: dict[int, list[Convoy]] = {i: [] for i in ccs}
    for i, (a, b) in enumerate(windows):
        if b - a <= 1:
            per_window[i] = [Convoy(ts=a, te=b, objs=g) for g in ccs[i]]
    for row in spanning_rows:
        per_window[int(row["window"])].append(
            Convoy(
                ts=int(row["ts"]),
                te=int(row["te"]),
                objs=frozenset(json.loads(row["objs"])),
            )
        )
    n_spanning = sum(len(v) for v in per_window.values())

    # --- 4. merge (driver).
    merged = dcm_merge([per_window[i] for i in sorted(per_window)], m)

    # --- 5. extend + validate over a pruned per-object read.
    convoys: list[Convoy] = []
    n_ext_points = 0
    if merged:
        objs = sorted({int(o) for v in merged for o in v.objs})
        ext_pdf = df.filter(F.col("oid").isin(objs)).toPandas()
        n_ext_points = len(ext_pdf)
        store = FileStore(ext_pdf, time_range=(int(ts), int(te)))
        extended = extend(store, merged, m, k, eps)
        convoys = validate(store, extended, m, k, eps)

    return K2HopSparkResult(
        convoys=convoys,
        points_total=total,
        points_scanned=n_bench + n_window_points + n_ext_points,
        n_spanning=n_spanning,
        n_maximal_spanning=len(merged),
    )
